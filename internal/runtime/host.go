package runtime

import (
	"sync"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
)

// Host runs one process at one location over a transport; mu, held for each Step, is its only lock.
type Host struct {
	core Core
	tr   network.Transport
	mu   sync.Mutex
	proc gpm.Process
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	// OnStep, if set before Start, observes every delivery (testing).
	OnStep func(in msg.Msg, outs []msg.Directive)
	// Obs receives the host's metrics and step trace events. NewHost
	// sets it to obs.Default; replace it before Start (and before the
	// first Emit, whose timers read it) to scope it (tests, benchmarks).
	Obs *obs.Obs

	steps  *obs.Counter
	stepNS *obs.Histogram

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}
}

// NewHost creates a host; call Start to begin processing.
func NewHost(self msg.Loc, tr network.Transport, p gpm.Process) *Host {
	return &Host{
		core:   Core{Self: self, Layer: obs.LayerRuntime},
		tr:     tr,
		proc:   p,
		done:   make(chan struct{}),
		timers: make(map[*time.Timer]struct{}),
		// Resolved here, not in Start: a delayed directive emitted before
		// Start arms a timer whose callback reads Obs concurrently.
		Obs: obs.Default,
	}
}

// Self returns the hosted location.
func (h *Host) Self() msg.Loc { return h.core.Self }

// Start launches the processing goroutine.
func (h *Host) Start() {
	h.steps = h.Obs.Counter("runtime.steps")
	h.stepNS = h.Obs.Histogram("runtime.step_ns")
	h.Obs.Logger("runtime").WithNode(h.core.Self).Infof("host started")
	h.wg.Add(1)
	go h.loop()
}

// Inject feeds a local message to the process (e.g. boot directives).
func (h *Host) Inject(m msg.Msg) {
	_ = h.tr.Send(msg.Envelope{From: h.core.Self, To: h.core.Self, M: m})
}

// Emit sends directives on the host's transport, turning delays into
// timers. Timers are tracked so Close can stop any still pending.
func (h *Host) Emit(outs []msg.Directive) { h.emit(h.core.stamp(h.Obs, outs, "")) }

// emit arms a timer per delayed send of out and writes its immediate
// sends with one SendBatch where the transport can batch: the transport
// frames them per connection.
func (h *Host) emit(out Out) {
	sends := out.Sends(h.arm)
	if bs, ok := h.tr.(network.BatchSender); ok && len(sends) > 0 {
		_ = bs.SendBatch(sends)
		return
	}
	for _, env := range sends {
		_ = h.tr.Send(env)
	}
}

// arm sends env after delay unless the host closes first.
func (h *Host) arm(delay time.Duration, env msg.Envelope) {
	// The callback reads the timer pointer under timerMu, and the
	// assignment below completes inside the same critical section, so
	// an immediately-firing timer cannot observe it half-written.
	h.timerMu.Lock()
	defer h.timerMu.Unlock()
	var timer *time.Timer
	timer = time.AfterFunc(delay, func() {
		h.timerMu.Lock()
		if h.timers != nil {
			delete(h.timers, timer)
			h.Obs.Gauge("runtime.timers_pending").Set(int64(len(h.timers)))
		}
		h.timerMu.Unlock()
		select {
		case <-h.done:
		default:
			_ = h.tr.Send(env)
		}
	})
	if h.timers == nil { // closed: stop immediately
		timer.Stop()
		return
	}
	h.timers[timer] = struct{}{}
	h.Obs.Gauge("runtime.timers_pending").Set(int64(len(h.timers)))
}

func (h *Host) loop() {
	defer h.wg.Done()
	for {
		select {
		case <-h.done:
			return
		case env, ok := <-h.tr.Receive():
			if !ok {
				return
			}
			d := h.core.Receive(h.Obs, env)
			t0 := time.Now()
			h.mu.Lock()
			h.proc, d.Outs = h.proc.Step(env.M)
			h.mu.Unlock()
			h.steps.Inc()
			h.stepNS.ObserveDuration(time.Since(t0))
			out := h.core.Emit(h.Obs, d)
			if h.OnStep != nil {
				h.OnStep(env.M, d.Outs)
			}
			h.emit(out)
		}
	}
}

// Close stops the host, its pending timers, and its transport.
func (h *Host) Close() error {
	h.once.Do(func() {
		close(h.done)
		h.timerMu.Lock()
		for t := range h.timers {
			t.Stop()
		}
		h.timers = nil
		h.Obs.Gauge("runtime.timers_pending").Set(0)
		h.timerMu.Unlock()
		_ = h.tr.Close()
		h.wg.Wait()
		h.Obs.Logger("runtime").WithNode(h.core.Self).Infof("host stopped")
	})
	return nil
}

// Inspect calls fn with the process between two steps, under mu; fn must not keep it or block.
func (h *Host) Inspect(fn func(gpm.Process)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fn(h.proc)
}
