package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
)

// flightSubdir scopes a flight dir to one phase of a multi-phase
// experiment, preserving "" as the disarmed state.
func flightSubdir(dir, phase string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, phase)
}

// armFlight arms per-node flight recorders on the run's cluster: one
// Recorder per node under <flight dir>/<node>/flight, all fed from the
// run's shared Obs, dumped the moment the online checker flags a
// violation. r.dump then dumps every recorder with a given reason — Close
// calls it when a run ends uncertified, so failure evidence survives
// even when no checker property fired. Without a flight dir everything
// stays disarmed and r.dump a no-op.
//
// Recorder failures are reported on stderr, never escalated: flight
// recording is evidence collection, and a broken disk must not turn a
// measurable experiment into an error.
func (r *Run) armFlight(nodes []msg.Loc) {
	if r.flightDir == "" {
		return
	}
	recs := make([]*obs.Recorder, 0, len(nodes))
	for _, n := range nodes {
		rec, err := obs.NewRecorder(r.Obs, filepath.Join(r.flightDir, string(n), "flight"), n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight: %s: %v\n", n, err)
			continue
		}
		if r.rates != nil {
			rec.SetRates(r.rates)
		}
		rec.SetCheckerStatus(func() any { return r.Checker.Status() })
		rec.SetConfig(map[string]string{"experiment": r.name})
		recs = append(recs, rec)
	}
	r.dump = func(reason string) {
		for _, rec := range recs {
			if _, err := rec.TryDump(reason); err != nil {
				fmt.Fprintf(os.Stderr, "flight: dump %s: %v\n", rec.Node(), err)
			}
		}
	}
	r.Checker.OnViolation(func(v dist.Violation) { r.dump("violation-" + v.Property) })
}
