package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/fault"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// Audit is what a certified run hands back from the shared epilogue: the
// online checker's view of the run and the hash of the nemesis
// injection log (0 without a nemesis). Equal fingerprints mean the two
// runs suffered bit-identical fault schedules.
type Audit struct {
	Events      int64
	Violations  []dist.Violation
	Fingerprint uint64
}

// add folds another phase's audit into a multi-phase total (a total has
// no single fingerprint; each nemesis phase keeps its own).
func (a *Audit) add(b Audit) {
	a.Events += b.Events
	a.Violations = append(a.Violations, b.Violations...)
}

// gate is the checker-clean certification gate.
func (a Audit) gate() Gate {
	return gate("checker_clean", len(a.Violations) == 0, "%d violations", len(a.Violations))
}

// report adds the checker figures under the report's experiment name.
func (a Audit) report(r *Report) {
	r.Add(r.Name+".checker.events", float64(a.Events), "count")
	r.Add(r.Name+".checker.violations", float64(len(a.Violations)), "count")
}

// renderViolations lists flagged violations, one per line.
func renderViolations(w io.Writer, label string, vs []dist.Violation) {
	for _, v := range vs {
		fmt.Fprintf(w, "  %sVIOLATION: %v\n", label, v)
	}
}

// Run is the shared prologue and epilogue of a certified experiment run:
// a dedicated Obs on the simulator's virtual clock with tracing on, the
// online checker subscribed to the live stream before any load runs,
// per-node flight recorders (when a flight dir is given), the nemesis,
// the data directory of durable deployments, and the commit timeline.
type Run struct {
	Obs     *obs.Obs
	Checker *dist.Checker

	name      string
	flightDir string
	dataDir   string // "" until Root creates a temp dir
	tmp       string // the temp dir to remove at Close, if any
	c         *Cluster
	timeline  *des.Timeline
	dump      func(reason string)
	// rates, when set before Attach, adds metric rate windows to every
	// flight bundle (postmortem experiment).
	rates *obs.Rates
	// onKill / onRestart are an experiment's extra bookkeeping around a
	// process-level kill (before the store closes) and restart (after the
	// new incarnation is rebound and its recovery sends are scheduled).
	onKill    func(msg.Loc)
	onRestart func(msg.Loc, *core.SMRReplica)
}

// watchRun, when set, is handed every run's Obs before any load runs,
// so a sink added to it sees every event the run traces (tests).
var watchRun func(*obs.Obs)

// startRun arms the observation side of a run. name labels flight
// bundles and the temp data directory; dataDir, when non-empty, hosts
// durable stores instead of a temp directory.
func startRun(name string, ringSize int, flightDir, dataDir string) *Run {
	r := &Run{
		Obs:  obs.New(ringSize),
		name: name, flightDir: flightDir, dataDir: dataDir,
		dump: func(string) {},
	}
	r.Obs.EnableTracing(true)
	if watchRun != nil {
		watchRun(r.Obs)
	}
	return r
}

// Root is the directory durable replicas journal under: the configured
// data dir, or a fresh temp directory removed at Close.
func (r *Run) Root() string {
	if r.dataDir == "" {
		tmp, err := os.MkdirTemp("", "shadowdb-"+r.name+"-")
		if err != nil {
			panic(err)
		}
		r.dataDir, r.tmp = tmp, tmp
	}
	return r.dataDir
}

// Attach points the cluster's step events at the run's Obs, subscribes
// the online checker armed with the cluster's deployment facts, and arms
// one flight recorder per protocol node.
func (r *Run) Attach(c *Cluster) *Cluster {
	r.c = c
	c.clu.Observe(r.Obs)
	r.Checker = dist.NewChecker(c.facts())
	r.Checker.Watch(r.Obs)
	r.armFlight(c.nodes)
	return c
}

// Inject binds the nemesis plan to the attached cluster. On a durable
// deployment a crash is a process-level kill: the node's stores are
// closed, its image dropped, and the restart builds a fresh incarnation
// over its data directory (Cluster.Restart), tells the checker, and —
// deferred a tick so the sends happen after the node's crash flag
// clears — emits the new incarnation's boot directives. Elsewhere a
// crash flips the simulated node's crash flag.
func (r *Run) Inject(plan fault.Plan) *fault.Injector {
	c := r.c
	if c.root == "" {
		c.inj = fault.BindCluster(c.clu, plan)
	} else {
		c.inj = fault.BindProcess(c.clu, plan, fault.ProcessHooks{
			Kill: func(node msg.Loc) {
				c.kills++
				if r.onKill != nil {
					r.onKill(node)
				}
				c.kill(node)
			},
			DataDir: func(node msg.Loc) string { return filepath.Join(c.root, string(node)) },
			Restart: func(node msg.Loc) {
				c.restarts++
				replayed := obs.C("store.wal.replays").Value()
				boot := c.Restart(node)
				c.replayed += obs.C("store.wal.replays").Value() - replayed
				rep := c.smr(node)
				c.recoveredAll = c.recoveredAll && rep.Recovered()
				c.lastRestartAt = c.sim.Now()
				r.Checker.NoteRestart(node)
				c.sim.After(0, func() { c.send(node, boot) })
				if r.onRestart != nil {
					r.onRestart(node, rep)
				}
			},
		})
	}
	c.inj.SetObs(r.Obs)
	return c.inj
}

// Timeline creates the run's commit timeline (hand it to the client
// fleet's loadStats); progressAfter reads it back.
func (r *Run) Timeline(bin time.Duration) *des.Timeline {
	r.timeline = des.NewTimeline(bin)
	return r.timeline
}

// progressAfter reports whether any commit landed in a timeline bin
// strictly after the one containing t (false for t <= 0: the event never
// happened).
func (r *Run) progressAfter(t time.Duration) bool {
	if t <= 0 {
		return false
	}
	series := r.timeline.Series()
	for b := int(t/r.timeline.Bin) + 1; b < len(series); b++ {
		if series[b] > 0 {
			return true
		}
	}
	return false
}

// Audit reads the checker's verdict and the injection fingerprint.
func (r *Run) Audit() Audit {
	a := Audit{Events: r.Checker.Status().Events, Violations: r.Checker.Violations()}
	if r.c.inj != nil {
		a.Fingerprint = r.c.inj.Fingerprint()
	}
	return a
}

// Close ends the run: an uncertified one dumps every flight recorder, so
// failure evidence survives even when no checker property fired (those
// dump on their own), and the temp data directory is removed.
func (r *Run) Close(certified bool) {
	if !certified {
		r.dump("uncertified")
	}
	if r.tmp != "" {
		_ = os.RemoveAll(r.tmp)
	}
}
