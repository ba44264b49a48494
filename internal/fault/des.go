package fault

import (
	"time"

	"shadowdb/internal/des"
	"shadowdb/internal/msg"
)

// BindCluster applies a plan to a simulated cluster: it installs the
// injector as the cluster's Fault hook (rules and partitions judged on
// the virtual clock) and schedules the plan's crash-restart events as
// real des.Node crashes on the simulator. Because the simulator is
// single-threaded and its clock virtual, the entire injection schedule
// is deterministic: same plan + seed + workload ⇒ identical
// Injector.Fingerprint.
//
// Call BindCluster after the plan's crash targets are registered on the
// cluster (unknown nodes are skipped at fire time).
func BindCluster(clu *des.Cluster, p Plan) *Injector {
	inj := NewInjector(p, func() time.Duration { return clu.Sim.Now() })
	clu.Fault = func(from, to msg.Loc, m msg.Msg) des.FaultVerdict {
		if inj.Blocked(from, to) {
			inj.NoteBlocked(from, to, m.Hdr)
			return des.FaultVerdict{Drop: true}
		}
		v := inj.Judge(from, to, m.Hdr)
		return des.FaultVerdict{Drop: v.Drop, Delay: v.Delay, Dup: v.Dup}
	}
	for _, c := range p.EffectiveCrashes() {
		c := c
		clu.Sim.At(c.At.D(), func() {
			n := clu.Node(c.Node)
			if n == nil {
				return
			}
			n.Crash()
			inj.NoteCrash(c.Node, "crash")
			if c.RestartAfter > 0 {
				clu.Sim.After(c.RestartAfter.D(), func() {
					n.Restart()
					inj.NoteCrash(c.Node, "restart")
				})
			}
		})
	}
	// Slow-disk windows change nothing in the cluster itself — costed
	// handlers pull the factor through SlowFactor — but the edges are
	// recorded as injections so the log (and the fingerprint) carries
	// the gray-failure schedule.
	for _, s := range p.SlowDisks {
		s := s
		clu.Sim.At(s.At.D(), func() { inj.NoteCrash(s.Node, "slowdisk") })
		if s.Until > 0 {
			clu.Sim.At(s.Until.D(), func() { inj.NoteCrash(s.Node, "heal") })
		}
	}
	return inj
}
