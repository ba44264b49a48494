package network

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shadowdb/internal/flow"
	"shadowdb/internal/msg"
	"shadowdb/internal/netutil"
	"shadowdb/internal/obs"
)

// TCP is the distributed transport: one listener for inbound traffic and
// lazily established, automatically reconnecting outbound connections,
// one per peer address — Locs the directory maps to one address (the
// logical clients of one client endpoint) share its connection. Frames
// are a 4-byte big-endian length followed by a msg frame
// (msg.AppendFrame; each body's codec is registered by its owning
// package's init, so the binary must link that package). A frame that
// does not decode closes the connection it came on.
type TCP struct {
	self      msg.Loc
	directory map[msg.Loc]string
	ln        net.Listener
	inbox     chan msg.Envelope

	mu sync.Mutex
	// conns, redial and dialing are keyed by directory address, so
	// SetPeer moves a Loc's traffic on its next send.
	conns map[string]net.Conn
	// routes are the learned return routes: the inbound connection a Loc
	// the directory does not list (a client on an ephemeral port) first
	// spoke on.
	routes  map[msg.Loc]net.Conn
	inbound map[net.Conn]bool
	redial  map[string]*redialState
	// dialing holds, per address with a dial currently in flight, a
	// channel closed when that dial resolves. Dials run outside mu (a 2s
	// dial timeout must never stall senders to healthy peers) and at most
	// one dial per address is in flight: concurrent senders to the same
	// address wait on the channel instead of stacking up redundant dials,
	// and once a failure has stamped the redial backoff window they fail
	// fast until it expires.
	dialing map[string]chan struct{}
	// clock, when set via EnforceDeadlines, drops inbound envelopes
	// whose Deadline has already passed (nil = no enforcement).
	clock func() int64
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
	// loopMu orders loopback sends against Close: senders to self hold
	// it shared while they touch inbox, Close takes it exclusively to
	// close inbox. Only the loopback path pays for it — remote sends
	// never write inbox (readLoops do, and Close waits them out).
	loopMu sync.RWMutex

	// Metrics handles, cached once at construction (obs.Default registry).
	framesIn     *obs.Counter
	decodeErrors *obs.Counter
	framesOut    *obs.Counter
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	dials        *obs.Counter
	accepts      *obs.Counter
	drops        *obs.Counter
	connDrops    *obs.Counter
	backoffs     *obs.Counter
	expiredDrops *obs.Counter
	gConnsOut    *obs.Gauge
	gConnsIn     *obs.Gauge
	gInbox       *obs.Gauge
	gDialing     *obs.Gauge

	// lg logs connection lifecycle (dial failures, backoff, dead-conn
	// drops) under the transport's own node id.
	lg *obs.Logger
	// warnedDecode is set by the first undecodable frame, the only one
	// logged: a hostile peer must not be able to flood the log.
	warnedDecode atomic.Bool
}

var _ Transport = (*TCP)(nil)

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 64 << 20

// maxReuse caps the frame buffers kept for reuse: sends build frames in
// pooled arrays, and each read loop reads into one array of its own, as
// long as the frames fit (msg.DecodeFrame never aliases its input).
const maxReuse = 64 << 10

// framePool recycles send-side frame arrays: a write is synchronous, so
// the array is free again once Write returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// peer names one outbound connection: a directory address, or, for a
// Loc the directory does not list, the learned return route of that Loc.
// The zero peer is no connection (self, or an unknown destination).
type peer struct {
	addr  string
	route msg.Loc
}

// batch is SendBatch's scratch, pooled so grouping a step's envelopes by
// connection allocates nothing: peers[i] is envs[i]'s connection, and
// frame collects one connection's envelopes in order.
type batch struct {
	peers []peer
	frame []msg.Envelope
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// redialBackoff is the shared redial policy: the delay doubles from
// 50ms per consecutive dial failure, capped at 3s so a restarted peer
// is re-discovered within a few seconds. Full jitter (keyed per peer)
// spreads the redial windows of many transports that lost the same
// peer at the same moment — e.g. every node of a cluster watching one
// replica restart — instead of hammering it in lockstep.
var redialBackoff = netutil.Backoff{Base: 50 * time.Millisecond, Cap: 3 * time.Second, Full: true}

// redialState tracks consecutive dial failures to one peer.
type redialState struct {
	fails int
	until time.Time
}

// NewTCP starts a TCP transport for self, listening on directory[self]
// and dialing peers through the directory.
func NewTCP(self msg.Loc, directory map[msg.Loc]string) (*TCP, error) {
	addr, ok := directory[self]
	if !ok {
		return nil, fmt.Errorf("network: no address for %q in directory", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	dir := make(map[msg.Loc]string, len(directory))
	for k, v := range directory {
		dir[k] = v
	}
	t := &TCP{
		self:      self,
		directory: dir,
		ln:        ln,
		inbox:     make(chan msg.Envelope, 4096),
		conns:     make(map[string]net.Conn),
		routes:    make(map[msg.Loc]net.Conn),
		inbound:   make(map[net.Conn]bool),
		redial:    make(map[string]*redialState),
		dialing:   make(map[string]chan struct{}),
		done:      make(chan struct{}),

		framesIn:     obs.C("net.frames_in"),
		decodeErrors: obs.C("net.decode_errors"),
		framesOut:    obs.C("net.frames_out"),
		bytesIn:      obs.C("net.bytes_in"),
		bytesOut:     obs.C("net.bytes_out"),
		dials:        obs.C("net.dials"),
		accepts:      obs.C("net.accepts"),
		drops:        obs.C("net.send_drops"),
		connDrops:    obs.C("net.conn_drops"),
		backoffs:     obs.C("net.dial_backoffs"),
		expiredDrops: obs.C("net.expired_drops"),
		gConnsOut:    obs.G("net.conns_out"),
		gConnsIn:     obs.G("net.conns_in"),
		gInbox:       obs.G("net.inbox_depth"),
		gDialing:     obs.G("net.dial.inflight"),

		lg: obs.L("net").WithNode(self),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" directories).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeer adds or updates a peer's address, e.g. after ephemeral ports
// are known. The next send to l goes to addr.
func (t *TCP) SetPeer(l msg.Loc, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.directory[l] = addr
}

// EnforceDeadlines arms receive-side deadline enforcement: inbound
// envelopes whose Deadline (absolute nanoseconds on the deployment
// clock) has passed according to clock are dropped at the transport,
// before any handler spends work on them. The caller must supply the
// same clock that stamped the deadlines — in a live deployment that is
// wall time since the Unix epoch on every node. nil disables
// enforcement (the default; deployments without a shared clock base
// still enforce deadlines at the protocol hops, which use injected
// per-process clocks).
func (t *TCP) EnforceDeadlines(clock func() int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
}

// Send implements Transport. Connection failures drop the message (crash
// model); the next Send re-dials.
func (t *TCP) Send(env msg.Envelope) error {
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	env.From = t.self
	if env.To == t.self {
		return t.loopback(env)
	}
	t.mu.Lock()
	p := t.peerOf(env.To)
	t.mu.Unlock()
	if p == (peer{}) {
		t.drops.Inc() // unknown destination
		return nil
	}
	return t.sendFrame(p, []msg.Envelope{env})
}

// SendBatch implements BatchSender: the envelopes bound to each
// connection travel as one length-prefixed frame — one write — in their
// order in envs, so a step's sends cost one frame per peer address
// instead of one per message. Self-addressed envelopes are looped back,
// and an unknown or unreachable destination drops only its own.
func (t *TCP) SendBatch(envs []msg.Envelope) error {
	if len(envs) == 1 {
		return t.Send(envs[0])
	}
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	b := batchPool.Get().(*batch)
	defer batchPool.Put(b)
	b.peers = b.peers[:0]
	t.mu.Lock()
	for i := range envs {
		envs[i].From = t.self
		var p peer
		if envs[i].To != t.self {
			if p = t.peerOf(envs[i].To); p == (peer{}) {
				t.drops.Inc() // unknown destination
			}
		}
		b.peers = append(b.peers, p)
	}
	t.mu.Unlock()
	var first error
	for i := range envs {
		p := b.peers[i]
		if p == (peer{}) {
			// Self, an unknown destination, or already framed.
			if envs[i].To == t.self {
				if err := t.loopback(envs[i]); err != nil {
					return err
				}
			}
			continue
		}
		frame := append(b.frame[:0], envs[i])
		for j := i + 1; j < len(envs); j++ {
			if b.peers[j] == p {
				frame = append(frame, envs[j])
				b.peers[j] = peer{}
			}
		}
		err := t.sendFrame(p, frame)
		clear(frame) // the pool must not keep bodies alive
		b.frame = frame[:0]
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// peerOf returns the connection to's sends go on: its directory address
// (SetPeer redirects it), else its learned return route. Caller holds mu.
func (t *TCP) peerOf(to msg.Loc) peer {
	if addr, ok := t.directory[to]; ok {
		return peer{addr: addr}
	}
	if _, ok := t.routes[to]; ok {
		return peer{route: to}
	}
	return peer{}
}

// sendFrame writes envs, all bound to p, as one length-prefixed frame
// built in a pooled array.
func (t *TCP) sendFrame(p peer, envs []msg.Envelope) error {
	buf := framePool.Get().(*[]byte)
	frame, err := msg.AppendFrame(append((*buf)[:0], 0, 0, 0, 0), envs)
	defer func() {
		if cap(frame) <= maxReuse {
			*buf = frame
			framePool.Put(buf)
		}
	}()
	if err != nil || len(frame)-4 > maxFrame {
		frame = nil // not kept for reuse
		return t.sendCut(p, envs)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if !t.writeFrame(p, frame) {
		t.drops.Add(int64(len(envs)))
		return nil // unreachable peer: drop
	}
	t.framesOut.Inc()
	t.bytesOut.Add(int64(len(frame)))
	return nil
}

// sendCut sends envelopes whose one frame would exceed maxFrame, which
// the reader refuses, or would not encode, as several frames within the
// bound, in order. An envelope that no frame can hold, or whose body
// cannot be encoded, is dropped, counted and logged; the first encoding
// error is returned.
func (t *TCP) sendCut(p peer, envs []msg.Envelope) error {
	// A frame is a version byte, a count of at most binary.MaxVarintLen64
	// bytes and its envelopes; a one-envelope frame's count is one byte,
	// so an envelope of n bytes fits alone when n+2 <= maxFrame.
	const head = 1 + binary.MaxVarintLen64
	var first error
	from, size := 0, head
	flush := func(to int) {
		if from < to {
			if err := t.sendFrame(p, envs[from:to]); err != nil && first == nil {
				first = err
			}
		}
	}
	var one []byte
	for i := range envs {
		var err error
		if one, err = msg.AppendFrame(one[:0], envs[i:i+1]); err != nil {
			flush(i)
			t.drops.Inc()
			t.lg.Warnf("dropping a %s envelope to %s: %v", envs[i].M.Hdr, envs[i].To, err)
			if first == nil {
				first = fmt.Errorf("send to %s: %w", envs[i].To, err)
			}
			from, size = i+1, head
			continue
		}
		n := len(one) - 2
		if n+2 > maxFrame {
			flush(i)
			t.drops.Inc()
			t.lg.Warnf("dropping a %d-byte %s envelope to %s: over the %d-byte frame bound", n, envs[i].M.Hdr, envs[i].To, maxFrame)
			from, size = i+1, head
			continue
		}
		if size+n > maxFrame {
			flush(i)
			from, size = i, head
		}
		size += n
	}
	flush(len(envs))
	return first
}

// loopback delivers a self-addressed envelope without a socket. A timer
// goroutine's self-send may race Close, so the closed check and the
// inbox write happen under loopMu: either the send completes before
// Close closes inbox, or it sees done and reports ErrClosed.
func (t *TCP) loopback(env msg.Envelope) error {
	t.loopMu.RLock()
	defer t.loopMu.RUnlock()
	select {
	case <-t.done:
		return ErrClosed
	default:
	}
	select {
	case t.inbox <- env:
		t.gInbox.Set(int64(len(t.inbox)))
	default:
		t.drops.Inc()
	}
	return nil
}

// writeFrame writes one frame to p, retrying once over a fresh dial when
// a cached connection turns out to be dead (a peer that crash-restarted
// leaves the old connection half-open; only a write notices). A peer
// that cannot be dialed at all stays dropped.
func (t *TCP) writeFrame(p peer, frame []byte) bool {
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.conn(p)
		if err != nil {
			return false
		}
		if _, err := conn.Write(frame); err == nil {
			return true
		}
		t.dropConn(p, conn)
	}
	return false
}

// Receive implements Transport.
func (t *TCP) Receive() <-chan msg.Envelope { return t.inbox }

// Close implements Transport. It closes the listener, every outbound
// connection, and every accepted connection (otherwise readLoops blocked
// in ReadFull would never exit and Close would deadlock).
func (t *TCP) Close() error {
	t.once.Do(func() {
		close(t.done)
		_ = t.ln.Close()
		t.mu.Lock()
		for _, c := range t.conns {
			_ = c.Close()
		}
		t.conns = map[string]net.Conn{}
		t.routes = map[msg.Loc]net.Conn{}
		for c := range t.inbound {
			_ = c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
		t.loopMu.Lock()
		close(t.inbox)
		t.loopMu.Unlock()
	})
	return nil
}

// conn returns p's connection, dialing its address if none is open. A
// learned route is never dialed: it lives as long as its inbound
// connection.
func (t *TCP) conn(p peer) (net.Conn, error) {
	for {
		t.mu.Lock()
		select {
		case <-t.done:
			t.mu.Unlock()
			return nil, ErrClosed
		default:
		}
		if p.addr == "" {
			c, ok := t.routes[p.route]
			t.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("network: route to %q lost", p.route)
			}
			return c, nil
		}
		if c, ok := t.conns[p.addr]; ok {
			t.mu.Unlock()
			return c, nil
		}
		// Bounded redial backoff: an address that just refused a dial is
		// not dialed again until its window expires, so a crashed replica
		// costs senders a map lookup instead of a 2s dial timeout per
		// message.
		if rs := t.redial[p.addr]; rs != nil && time.Now().Before(rs.until) {
			t.backoffs.Inc()
			t.mu.Unlock()
			return nil, fmt.Errorf("network: %s in redial backoff", p.addr)
		}
		ch, inflight := t.dialing[p.addr]
		if !inflight {
			// Dial semaphore: this sender takes the address's single dial
			// slot; the dial itself runs outside mu so a slow dial stalls
			// neither other senders nor traffic to healthy peers.
			ch = make(chan struct{})
			t.dialing[p.addr] = ch
			t.gDialing.Add(1)
			t.mu.Unlock()
			return t.finishDial(p.addr, ch)
		}
		t.mu.Unlock()
		// Another sender is already dialing this address: wait for its
		// outcome instead of stacking a redundant dial, then re-check
		// (the dial either registered a connection or stamped a backoff
		// window, so this loop terminates).
		select {
		case <-ch:
		case <-t.done:
			return nil, ErrClosed
		}
	}
}

// finishDial completes the single in-flight dial to one address: it
// runs the dial outside mu, registers the connection (or the redial
// backoff window on failure), and wakes every sender waiting on ch.
func (t *TCP) finishDial(addr string, ch chan struct{}) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)

	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.dialing, addr)
	t.gDialing.Add(-1)
	// Waiters woken by the close re-acquire mu before reading, so they
	// always observe the outcome registered below.
	defer close(ch)
	// Re-check done under mu: Close sweeps t.conns under this same lock,
	// so a connection registered here either happens before the sweep
	// (and is closed by it) or observes done closed and aborts. Without
	// this a Send racing Close could spawn a readLoop on a connection
	// nobody closes, and Close's wg.Wait would hang forever.
	select {
	case <-t.done:
		if c != nil {
			_ = c.Close()
		}
		return nil, ErrClosed
	default:
	}
	rs := t.redial[addr]
	if err != nil {
		if rs == nil {
			rs = &redialState{}
			t.redial[addr] = rs
		}
		rs.fails++
		// Full jitter keyed per address: transports that lost the same
		// peer together spread their redial windows apart.
		d := redialBackoff.Delay(rs.fails-1, netutil.StrSeed(string(t.self)+"->"+addr))
		rs.until = time.Now().Add(d)
		if rs.fails == 1 {
			// First failure in a streak: the transition into backoff is
			// the interesting edge; subsequent doublings log at debug.
			t.lg.Warnf("dial %s failed, entering redial backoff: %v", addr, err)
		} else if t.lg.Enabled(obs.LevelDebug) {
			t.lg.Debugf("dial %s failed %d times, backoff %v", addr, rs.fails, d)
		}
		return nil, err
	}
	if rs != nil {
		t.lg.Infof("reconnected to %s after %d failed dials", addr, rs.fails)
	}
	delete(t.redial, addr)
	t.conns[addr] = c
	t.dials.Inc()
	t.gConnsOut.Set(int64(len(t.conns)))
	// Connections are bidirectional: the peer may answer over this same
	// connection (it learns the return route from our envelopes), so the
	// dialer must read it too.
	t.wg.Add(1)
	go t.readLoop(c)
	return c, nil
}

// dropConn forgets c as p's connection after a write on it failed.
func (t *TCP) dropConn(p peer, c net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.addr == "" {
		if t.routes[p.route] == c {
			delete(t.routes, p.route)
			_ = c.Close()
			t.connDrops.Inc()
		}
		return
	}
	if t.conns[p.addr] == c {
		delete(t.conns, p.addr)
		_ = c.Close()
		t.connDrops.Inc()
		t.gConnsOut.Set(int64(len(t.conns)))
		t.lg.Debugf("dropped dead connection to %s", p.addr)
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				continue
			}
		}
		t.mu.Lock()
		t.inbound[conn] = true
		t.accepts.Inc()
		t.gConnsIn.Set(int64(len(t.inbound)))
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.gConnsIn.Set(int64(len(t.inbound)))
		t.mu.Unlock()
	}()
	hdr := make([]byte, 4)
	var buf []byte
	for {
		select {
		case <-t.done:
			return
		default:
		}
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr)
		if n == 0 || n > maxFrame {
			return
		}
		if int(n) > cap(buf) {
			buf = make([]byte, n)
		}
		body := buf[:n]
		if n > maxReuse {
			buf = nil
		}
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		t.framesIn.Inc()
		t.bytesIn.Add(int64(4 + n))
		envs, err := msg.DecodeFrame(body)
		if err != nil {
			// Frames carry no state between them, so a frame that does
			// not decode means the peer speaks another version or is not
			// a peer at all: nothing later on this connection can be
			// trusted either.
			t.decodeErrors.Inc()
			if t.warnedDecode.CompareAndSwap(false, true) {
				t.lg.Warnf("closing connection from %s: undecodable frame: %v (logged once)", conn.RemoteAddr(), err)
			}
			return
		}
		// One lock per frame: read the clock, and learn the return route
		// of each sender the directory does not list (clients on
		// ephemeral ports are answered over their own inbound
		// connection; TCP is bidirectional, and the first one wins).
		t.mu.Lock()
		clock := t.clock
		var from msg.Loc
		for i := range envs {
			if f := envs[i].From; f != "" && f != from {
				from = f
				if _, listed := t.directory[f]; !listed {
					if _, known := t.routes[f]; !known {
						t.routes[f] = conn
					}
				}
			}
		}
		t.mu.Unlock()
		for _, env := range envs {
			if clock != nil && flow.Expired(env.Deadline, clock()) {
				// Enforced deadline: the work is already late, so the
				// cheapest place to shed it is before the handler. The
				// sender's own deadline check is what turns this into a
				// terminal client outcome; here it is pure load shedding.
				t.expiredDrops.Inc()
				flow.MarkExpired()
				continue
			}
			select {
			case t.inbox <- env:
				t.gInbox.Set(int64(len(t.inbox)))
			case <-t.done:
				return
			}
		}
	}
}
