package bench

import (
	"fmt"
	"strings"
)

// Gate is one certification condition of an experiment result. A
// result's gate list is the single definition of its acceptance bar:
// Certified, the boolean report metrics and the failure line cmd/bench
// prints are all derived from it.
type Gate struct {
	// Name identifies the condition ("caught_up", "checker_clean").
	Name string
	// OK reports whether the condition held.
	OK bool
	// Detail is the evidence shown when it did not ("2 violations").
	Detail string
	// metric marks gates that are themselves a reported outcome: they
	// appear in the report as the boolean metric <experiment>.<Name>.
	// Numeric gates (counts against a bar) are not repeated there — the
	// report already carries their operands.
	metric bool
}

// gate is a condition with formatted evidence.
func gate(name string, ok bool, format string, args ...any) Gate {
	return Gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// boolGate is a boolean outcome that is both a gate and a report metric.
func boolGate(name string, ok bool) Gate {
	return Gate{Name: name, OK: ok, metric: true}
}

// Certified reports whether every gate held.
func Certified(gates []Gate) bool {
	for _, g := range gates {
		if !g.OK {
			return false
		}
	}
	return true
}

// FailureLine names the gates that failed, with their evidence, or ""
// when the list certifies.
func FailureLine(experiment string, gates []Gate) string {
	var failed []string
	for _, g := range gates {
		switch {
		case g.OK:
		case g.Detail == "":
			failed = append(failed, g.Name)
		default:
			failed = append(failed, fmt.Sprintf("%s (%s)", g.Name, g.Detail))
		}
	}
	if len(failed) == 0 {
		return ""
	}
	return experiment + ": certification failed: " + strings.Join(failed, ", ")
}

// AddGates reports every boolGate as a boolean metric under the
// report's experiment name.
func (r *Report) AddGates(gates []Gate) {
	for _, g := range gates {
		if g.metric {
			r.Add(r.Name+"."+g.Name, b2f(g.OK), "bool")
		}
	}
}

// AddCertified reports the gate list's verdict as <experiment>.certified.
func (r *Report) AddCertified(gates []Gate) {
	r.AddGates(gates)
	r.Add(r.Name+".certified", b2f(Certified(gates)), "bool")
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
