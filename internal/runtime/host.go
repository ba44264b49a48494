// Package runtime hosts GPM processes on real transports: each host runs
// one process in its own goroutine, feeding it inbound messages and
// emitting its directives (delayed directives become timers). This is the
// deployment layer of the cmd binaries; the same processes run unchanged
// in the reference runner, the model checker, and the simulator.
package runtime

import (
	"sync"
	"time"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
)

// Host runs one process at one location over a transport.
type Host struct {
	self msg.Loc
	tr   network.Transport
	mu   sync.Mutex
	proc gpm.Process
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	// OnStep, if set before Start, observes every delivery (testing).
	OnStep func(in msg.Msg, outs []msg.Directive)
	// Steps counts processed messages.
	Steps int64
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
		self:   self,
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
func (h *Host) Self() msg.Loc { return h.self }

// Start launches the processing goroutine.
func (h *Host) Start() {
	h.steps = h.Obs.Counter("runtime.steps")
	h.stepNS = h.Obs.Histogram("runtime.step_ns")
	h.Obs.Logger("runtime").WithNode(h.self).Infof("host started")
	h.wg.Add(1)
	go h.loop()
}

// Inject feeds a local message to the process (e.g. boot directives).
func (h *Host) Inject(m msg.Msg) {
	_ = h.tr.Send(msg.Envelope{From: h.self, To: h.self, M: m})
}

// Emit sends directives on the host's transport, turning delays into
// timers. Timers are tracked so Close can stop any still pending.
func (h *Host) Emit(outs []msg.Directive) { h.emit(outs, "") }

// emit sends directives with a causal context: every envelope carries the
// trace ID of the request whose handling produced it, plus a fresh
// Lamport stamp taken at the actual send (for timers, at fire time — the
// stamp still exceeds the clock at emission, as Lamport requires).
//
// On batch-capable transports, runs of consecutive immediate directives
// to the same destination coalesce into one wire frame; each envelope in
// the run still gets its own Lamport stamp, so the causal record is
// identical to per-envelope sends.
func (h *Host) emit(outs []msg.Directive, trace string) {
	bs, canBatch := h.tr.(network.BatchSender)
	for i := 0; i < len(outs); i++ {
		o := outs[i]
		if o.Delay <= 0 {
			if canBatch {
				j := i + 1
				for j < len(outs) && outs[j].Delay <= 0 && outs[j].Dest == o.Dest {
					j++
				}
				if j-i > 1 {
					envs := make([]msg.Envelope, 0, j-i)
					for _, d := range outs[i:j] {
						envs = append(envs, msg.Envelope{From: h.self, To: d.Dest, M: d.M, Trace: trace, LC: h.Obs.Tick(), Deadline: msg.DeadlineOf(d.M)})
					}
					_ = bs.SendBatch(envs)
					i = j - 1
					continue
				}
			}
			_ = h.tr.Send(msg.Envelope{From: h.self, To: o.Dest, M: o.M, Trace: trace, LC: h.Obs.Tick(), Deadline: msg.DeadlineOf(o.M)})
			continue
		}
		// The callback reads the timer pointer under timerMu, and the
		// assignment below completes inside the same critical section, so
		// an immediately-firing timer cannot observe it half-written.
		h.timerMu.Lock()
		var timer *time.Timer
		timer = time.AfterFunc(o.Delay, func() {
			h.timerMu.Lock()
			if h.timers != nil {
				delete(h.timers, timer)
				h.Obs.Gauge("runtime.timers_pending").Set(int64(len(h.timers)))
			}
			h.timerMu.Unlock()
			select {
			case <-h.done:
			default:
				_ = h.tr.Send(msg.Envelope{From: h.self, To: o.Dest, M: o.M, Trace: trace, LC: h.Obs.Tick(), Deadline: msg.DeadlineOf(o.M)})
			}
		})
		if h.timers == nil { // closed: stop immediately
			timer.Stop()
			h.timerMu.Unlock()
			continue
		}
		h.timers[timer] = struct{}{}
		h.Obs.Gauge("runtime.timers_pending").Set(int64(len(h.timers)))
		h.timerMu.Unlock()
	}
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
			// The receive event merges the sender's Lamport stamp into the
			// host's clock; the resulting value is this delivery's clock.
			lc := h.Obs.Witness(env.LC)
			var t0 time.Time
			if h.stepNS != nil {
				t0 = time.Now()
			}
			h.mu.Lock()
			next, outs := h.proc.Step(env.M)
			h.proc = next
			h.Steps++
			h.mu.Unlock()
			h.steps.Inc()
			if h.stepNS != nil {
				h.stepNS.ObserveDuration(time.Since(t0))
			}
			// The trace ID propagates hop-by-hop: outputs inherit the
			// incoming envelope's ID. A traced hop whose input has none
			// derives one from the message's request span — the birth of a
			// trace at the request's entry into the system.
			trace := env.Trace
			if h.Obs.Tracing() {
				m := env.M
				f := obs.Extract(m.Hdr, m.Body)
				kind := "step"
				if f.Kind != "" {
					kind = f.Kind
				}
				if trace == "" {
					trace = f.Span
				}
				h.Obs.Record(obs.Event{
					Loc: h.self, Layer: obs.LayerRuntime, Kind: kind,
					Hdr: m.Hdr, Slot: f.Slot, Ballot: f.Ballot, Span: f.Span,
					Trace: trace, LC: lc,
					M: &m, Outs: outs,
				})
			}
			if h.OnStep != nil {
				h.OnStep(env.M, outs)
			}
			h.emit(outs, trace)
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
		if h.Obs != nil {
			h.Obs.Gauge("runtime.timers_pending").Set(0)
		}
		h.timerMu.Unlock()
		_ = h.tr.Close()
		h.wg.Wait()
		if h.Obs != nil {
			h.Obs.Logger("runtime").WithNode(h.self).Infof("host stopped")
		}
	})
	return nil
}

// Process returns the current process value (for state inspection in
// tests after Close).
func (h *Host) Process() gpm.Process {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.proc
}
