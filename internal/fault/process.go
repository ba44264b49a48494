package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"shadowdb/internal/des"
	"shadowdb/internal/msg"
)

// The process-level nemesis. BindCluster's crashes flip the simulated
// node's crash flag, and a restarted node resumes with its in-memory
// process. BindProcess goes further: a "kill" tears the node's process
// image down entirely, and a "restart" asks the host to rebuild it from
// its durable store, exactly like a real process being killed and
// re-exec'd over its data directory. Combined with Crash.CorruptTail it
// also exercises the torn-write path: the newest WAL segment's tail is
// flipped before the rebuild, and the store must open cleanly by
// truncating to the last valid record.

// ProcessHooks is what the host (a bench harness or daemon supervisor)
// supplies to make kill/restart real.
type ProcessHooks struct {
	// Kill tears the process down, beyond the simulator's crash flag:
	// close stores, drop references. May be nil (the crash flag and the
	// queue purge are often enough).
	Kill func(node msg.Loc)
	// Restart rebuilds the process from its durable state and rebinds it
	// to the node (des.Node.RebindCosted inside). Required.
	Restart func(node msg.Loc)
	// DataDir maps a node to its store directory for CorruptTail, which
	// needs a real file to flip bytes in. May be nil when no crash in
	// the plan sets CorruptTail.
	DataDir func(node msg.Loc) string
	// Flight, when set, fires at the edges of a kill window — event
	// "kill" just before the Kill hook runs and "restart" after the new
	// incarnation is rebound — so a flight recorder can dump the node's
	// state around the injected fault. May be nil.
	Flight func(node msg.Loc, event string)
}

// BindProcess applies a plan to a simulated cluster with process-level
// kill/restart semantics. Message rules and partitions behave exactly
// as in BindCluster; crashes additionally run the host's hooks, so a
// restarted node is a NEW process incarnation recovered from stable
// storage rather than the old one with a flag cleared.
func BindProcess(clu *des.Cluster, p Plan, hooks ProcessHooks) *Injector {
	if hooks.Restart == nil {
		panic("fault: BindProcess requires a Restart hook")
	}
	// Message-level faults are identical to BindCluster; only the crash
	// schedule differs, so build the injector the same way but schedule
	// the crashes ourselves.
	inj := BindCluster(clu, Plan{Seed: p.Seed, Rules: p.Rules, Partitions: p.Partitions})
	for _, c := range p.EffectiveCrashes() {
		c := c
		clu.Sim.At(c.At.D(), func() {
			n := clu.Node(c.Node)
			if n == nil {
				return
			}
			n.Crash()
			if hooks.Flight != nil {
				hooks.Flight(c.Node, "kill")
			}
			if hooks.Kill != nil {
				hooks.Kill(c.Node)
			}
			inj.NoteCrash(c.Node, "kill")
			if c.RestartAfter <= 0 {
				return
			}
			clu.Sim.After(c.RestartAfter.D(), func() {
				if c.CorruptTail && hooks.DataDir != nil {
					if err := CorruptWALTail(hooks.DataDir(c.Node)); err == nil {
						inj.NoteCrash(c.Node, "corrupt-tail")
					}
				}
				// Rebuild first, then clear the crash flag: the fresh
				// incarnation must exist before messages flow again.
				hooks.Restart(c.Node)
				n.Restart()
				inj.NoteCrash(c.Node, "restart")
				if hooks.Flight != nil {
					hooks.Flight(c.Node, "restart")
				}
			})
		})
	}
	return inj
}

// CorruptWALTail flips the final bytes of the newest WAL segment under
// a store directory (as written by store.Dir), corrupting the last
// record's checksum — the torn-write / bit-rot failure the WAL's
// open-time truncation must absorb. dir may be either one component's
// store directory or a node root; in the latter case every WAL-bearing
// subdirectory's newest segment is hit.
func CorruptWALTail(dir string) error {
	segs, err := newestSegments(dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("fault: no WAL segments under %s", dir)
	}
	for _, path := range segs {
		if err := flipTail(path); err != nil {
			return err
		}
	}
	return nil
}

// newestSegments finds the lexically newest wal-*.log directly in dir,
// or in each immediate subdirectory when dir itself holds none.
func newestSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	newest := ""
	var subdirs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			subdirs = append(subdirs, filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if name > newest {
				newest = name
			}
		}
	}
	if newest != "" {
		return []string{filepath.Join(dir, newest)}, nil
	}
	var out []string
	for _, sub := range subdirs {
		if segs, err := newestSegments(sub); err == nil {
			out = append(out, segs...)
		}
	}
	return out, nil
}

// flipTail inverts up to the last 4 bytes of a file (enough to break
// any CRC32C), leaving empty files alone.
func flipTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	n := int64(4)
	if st.Size() < n {
		n = st.Size()
	}
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, st.Size()-n); err != nil {
		return err
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	_, err = f.WriteAt(buf, st.Size()-n)
	return err
}
