package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
)

// requestTimeout is when a request counts as failed.
const requestTimeout = 5 * time.Second

// workload is one traffic mix on one deployment; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	mode core.ClientMode
	// lease turns on EnableLease and routes readPct percent of the
	// operations as lease reads to the holder.
	lease   bool
	readPct int
	tpcc    bool
}

var workloads = []*workload{
	{name: "smr-bank-write", mode: core.ModeSMR},
	{name: "smr-tpcc", mode: core.ModeSMR, tpcc: true},
	{name: "smr-bank-read95", mode: core.ModeSMR, lease: true, readPct: 95},
	{name: "pbr-bank-write", mode: core.ModePBR},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one generated request.
type op struct {
	read bool
	typ  string
	args []any
	acct int // bank account, -1 for TPC-C
}

// opGen turns the seed into the request sequence. It is the only source
// of randomness; the cluster sees nothing but the generated requests.
type opGen struct {
	w   *workload
	rng *rand.Rand
	tp  *tpcc.Generator
	n   int
}

func newOpGen(w *workload, seed int64) *opGen {
	g := &opGen{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.tpcc {
		g.tp = tpcc.NewGenerator(tpccScale, seed)
	}
	return g
}

func (g *opGen) next() op {
	if g.tp != nil {
		typ, args := g.tp.Next()
		return op{typ: typ, args: args, acct: -1}
	}
	acct := g.rng.Intn(bankRows)
	g.n++
	// The first operation is always a write: set-up ends at the first
	// committed transaction.
	if g.rng.Intn(100) < g.w.readPct && g.n > 1 {
		return op{read: true, typ: "balance", args: []any{int64(acct)}, acct: acct}
	}
	return op{typ: "deposit", args: []any{int64(acct), int64(1)}, acct: acct}
}

// logical is one closed-loop client: a core.Client state machine plus
// the request it has in flight.
type logical struct {
	mu    sync.Mutex
	c     *core.Client
	timer *time.Timer // retry timer of the request in flight
	cur   op
	start int64 // submit time, ns since the driver epoch
	lo    int64 // a read's lowest admissible value
	// lastWrite is the sequence number of the newest acknowledged write.
	lastWrite int64
}

// sample is one completed request.
type sample struct {
	start, end int64 // ns since the driver epoch
	read       bool
	failed     bool
}

// driver multiplexes the logical clients over one TCP endpoint, from one
// generator goroutine (submits) and one receiver goroutine (replies).
type driver struct {
	w       *workload
	tr      network.Transport
	in      <-chan msg.Envelope
	epoch   time.Time
	gen     *opGen
	clients []*logical
	byLoc   map[msg.Loc]int
	// Client-side spans, nil when untraced.
	genTrace, recvTrace *nodeTrace
	idSubmit, idHandle  int32

	ready   chan int // clients whose request completed
	conc    chan int // target number of requests in flight
	drained chan struct{}
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex
	samples []sample

	attempted, failed atomic.Int64
	writesAcked       atomic.Int64
	first             chan struct{} // closed at the first completion
	firstOnce         sync.Once
	// Per bank account: deposits submitted and deposits acknowledged.
	// A read must see at least the acknowledged and at most the submitted.
	submitted, acked []atomic.Int64
}

func newDriver(w *workload, c *cluster, seed int64, epoch time.Time) *driver {
	d := &driver{
		w: w, tr: c.client, in: c.client.Receive(), epoch: epoch,
		gen:   newOpGen(w, seed),
		byLoc: make(map[msg.Loc]int, numClients),
		// Sized to the number of clients, so neither side ever blocks.
		ready:     make(chan int, numClients),
		conc:      make(chan int),
		drained:   make(chan struct{}, 1),
		stop:      make(chan struct{}),
		first:     make(chan struct{}),
		submitted: make([]atomic.Int64, bankRows),
		acked:     make([]atomic.Int64, bankRows),
	}
	if c.tr != nil {
		d.tr = tracedTransport{inner: c.client, nt: c.tr.node(string(clientLoc))}
		d.genTrace, d.recvTrace = c.tr.node("cli.gen"), c.tr.node("cli.recv")
		d.idSubmit, d.idHandle = c.tr.nameID("client.submit"), c.tr.nameID("client.handle")
	}
	for i := 0; i < numClients; i++ {
		id := clientID(i)
		d.byLoc[id] = i
		// As cmd/shadowdb-client builds it: 2 s retry base, no deadline.
		d.clients = append(d.clients, &logical{c: &core.Client{
			Slf: id, Mode: w.mode, Replicas: replicaLocs, BcastNodes: bcastLocs,
			Retry: 2 * time.Second,
		}})
	}
	d.wg.Add(2)
	go d.generate()
	go d.receive()
	return d
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// generate keeps the target number of requests in flight.
func (d *driver) generate() {
	defer d.wg.Done()
	idle := make([]int, numClients)
	for i := range idle {
		idle[i] = i
	}
	target, busy := 0, 0
	for {
		select {
		case ci := <-d.ready:
			idle = append(idle, ci)
			busy--
		case target = <-d.conc:
		case <-d.stop:
			return
		}
		for busy < target && len(idle) > 0 {
			ci := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			d.submit(ci)
			busy++
		}
		if target == 0 && busy == 0 {
			select {
			case d.drained <- struct{}{}:
			default:
			}
		}
	}
}

func (d *driver) submit(ci int) {
	lc := d.clients[ci]
	o := d.gen.next()
	d.attempted.Add(1)
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.cur, lc.start = o, d.now()
	sp := d.genTrace.begin(d.idSubmit, roleStep, 0)
	var outs []msg.Directive
	if o.read {
		lc.lo = bankInitial + d.acked[o.acct].Load()
		outs = lc.c.SubmitRead(o.typ, o.args, core.ReadLease, readTarget)
	} else {
		if o.acct >= 0 {
			d.submitted[o.acct].Add(1)
		}
		outs = lc.c.Submit(o.typ, o.args)
	}
	d.genTrace.end(sp)
	d.emit(ci, lc, outs)
}

// emit carries out a client's directives: sends go to the endpoint, the
// self-addressed delayed one is the retry timer.
func (d *driver) emit(ci int, lc *logical, outs []msg.Directive) {
	for _, o := range outs {
		if o.Delay > 0 {
			if lc.timer != nil {
				lc.timer.Stop()
			}
			m := o.M
			lc.timer = time.AfterFunc(o.Delay, func() { d.handle(ci, m) })
			continue
		}
		if err := d.tr.Send(msg.Envelope{From: lc.c.Slf, To: o.Dest, M: o.M, Deadline: msg.DeadlineOf(o.M)}); err != nil {
			d.failed.Add(1)
		}
	}
}

func (d *driver) receive() {
	defer d.wg.Done()
	for env := range d.in {
		if ci, ok := d.byLoc[env.To]; ok {
			d.handle(ci, env.M)
		}
	}
}

// handle feeds one message (a reply, or a fired retry timer) to a
// client and, when that completes its request, records the sample.
func (d *driver) handle(ci int, m msg.Msg) {
	lc := d.clients[ci]
	lc.mu.Lock()
	sp := d.recvTrace.begin(d.idHandle, roleStep, 0)
	res, outs := lc.c.Handle(m)
	d.recvTrace.end(sp)
	done, bad := false, false
	if res != nil {
		done, bad = true, !d.writeOK(lc, *res)
	} else if rr := lc.c.TakeRead(); rr != nil {
		done, bad = true, !d.readOK(lc, rr)
		core.ReleaseReadResult(rr)
	}
	var s sample
	if done {
		lc.timer.Stop()
		s = sample{start: lc.start, end: d.now(), read: lc.cur.read}
		s.failed = bad || s.end-s.start > int64(requestTimeout)
	}
	d.emit(ci, lc, outs)
	lc.mu.Unlock()
	if !done {
		return
	}
	if s.failed {
		d.failed.Add(1)
	}
	d.mu.Lock()
	d.samples = append(d.samples, s)
	d.mu.Unlock()
	d.firstOnce.Do(func() { close(d.first) })
	d.ready <- ci
}

// writeOK checks a transaction result. A deterministic abort is a valid
// outcome only where the generator asks for one (TPC-C's 1% rollback).
func (d *driver) writeOK(lc *logical, res core.TxResult) bool {
	if res.Err != "" || (res.Aborted && !d.w.tpcc) {
		return false
	}
	lc.lastWrite = res.Seq
	d.writesAcked.Add(1)
	if lc.cur.acct >= 0 {
		d.acked[lc.cur.acct].Add(1)
	}
	return true
}

// readOK checks a lease read for linearizability: the balance covers
// every deposit acknowledged before the read was submitted and none
// that was not yet submitted when it returned.
func (d *driver) readOK(lc *logical, rr *core.ReadResult) bool {
	if rr.Err != "" || len(rr.Vals) != 1 {
		return false
	}
	v, ok := rr.Vals[0].(int64)
	hi := bankInitial + d.submitted[lc.cur.acct].Load()
	return ok && v >= lc.lo && v <= hi
}

// setConc sets how many requests the generator keeps in flight.
func (d *driver) setConc(n int) { d.conc <- n }

// drain stops submitting and waits for the requests in flight. Requests
// still out after the timeout count as failed.
func (d *driver) drain() error {
	select {
	case <-d.drained: // a stale signal from an earlier idle moment
	default:
	}
	d.setConc(0)
	select {
	case <-d.drained:
		return nil
	case <-time.After(requestTimeout + time.Second):
		stuck := d.attempted.Load() - int64(d.completed())
		d.failed.Add(stuck)
		return fmt.Errorf("%d requests still in flight %v after the last submit", stuck, requestTimeout)
	}
}

func (d *driver) completed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.samples)
}

// close stops both goroutines; the endpoint must already be closed so
// the receiver's channel ends.
func (d *driver) close() {
	d.stopped.Do(func() { close(d.stop) })
	d.wg.Wait()
	for _, lc := range d.clients {
		lc.mu.Lock()
		if lc.timer != nil {
			lc.timer.Stop()
		}
		lc.mu.Unlock()
	}
}

// window returns the samples that started and ended inside [lo, hi).
func (d *driver) window(lo, hi int64) []sample {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []sample
	for _, s := range d.samples {
		if s.start >= lo && s.end < hi {
			out = append(out, s)
		}
	}
	return out
}
