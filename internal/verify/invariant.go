package verify

import (
	"fmt"
	"strconv"

	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
)

// Runtime invariants. A property of the running system is stated once,
// as an incremental step over a normalised event, beside the protocol it
// constrains (consensus modules, broadcast, core, shard), and that one
// definition is run by three drivers: the schedule explorer in this
// package (Model.Invariants), the live subscription (dist.Checker.Feed)
// and the offline replay of collected traces (dist.Result.Check). All
// three go through Monitor, so a property certified in one place means
// the same thing in the others.

// Event is one step of one process in the form every invariant consumes:
// Loc handled In at time At and emitted Outs. Both gpm.TraceEntry and
// obs.Event convert to it by sharing their message and directive slice.
type Event struct {
	Loc  msg.Loc
	At   int64
	In   msg.Msg
	Outs []msg.Directive
	// LC and Trace are the causal stamps recorded runs carry (zero in
	// explored schedules); they pass through to the Violation.
	LC    int64
	Trace string
	// Group partitions per-slot and per-instance state between
	// independent replication groups (one per shard); the driver fills it
	// in. "" is the single global group.
	Group string
}

// Violation is one flagged property failure.
type Violation struct {
	// Property is the violated invariant's name.
	Property string `json:"property"`
	// Detail is the human-readable failure description.
	Detail string `json:"detail"`
	// Loc is the node whose event exposed the violation.
	Loc msg.Loc `json:"loc"`
	// At is the event's timestamp, LC its Lamport clock, Trace its
	// per-request trace ID — enough to find the event in a merged trace.
	At    int64  `json:"at"`
	LC    int64  `json:"lc,omitempty"`
	Trace string `json:"trace,omitempty"`
}

// Error formats the violation as one line; Violation satisfies error so
// a failed check can flow through error-returning paths.
func (v Violation) Error() string {
	return fmt.Sprintf("%s at %s (t=%d): %s", v.Property, v.Loc, v.At, v.Detail)
}

// Invariant is one property as an incremental step.
type Invariant struct {
	// Name is the property's registry name, package/property (DESIGN.md §4.1).
	Name string
	// Needs names the deployment fact the property cannot run without (a
	// lease window, an initial configuration), "" for none; Known reports
	// whether the fact has been supplied. Until then drivers skip the
	// step and report the property as not checked.
	Needs string
	Known func() bool
	// Step folds one event. inScope says the event was one the property
	// speaks about, so a driver can tell a clean run from a vacuous one;
	// bad describes each violation the event exposes.
	Step func(e *Event) (inScope bool, bad []string)
}

// Set is the invariants one package contributes. Fold, when set, updates
// the facts several of them read (a delivered-transaction index, the
// payload classification of a batch) once per event, before any Step.
// Invariants step in order, so one may read what an earlier one folded.
type Set struct {
	Fold       func(e *Event)
	Invariants []Invariant
}

// Just is the set of invariants that share no folded facts.
func Just(invs ...Invariant) Set { return Set{Invariants: invs} }

// Coverage says what a monitor checked for one property name.
type Coverage struct {
	Name string `json:"name"`
	// Seen counts the events that were in the property's scope.
	Seen int64 `json:"seen"`
	// Skipped is the missing deployment fact when the property could not
	// run, "" when it did.
	Skipped string `json:"skipped,omitempty"`
}

// Monitor steps a composed invariant list over an event stream: the one
// loop every driver shares. It is not safe for concurrent use.
type Monitor struct {
	sets []Set
	seen [][]int64 // seen[s][i] counts the events in scope of sets[s].Invariants[i]
}

// NewMonitor composes sets in order.
func NewMonitor(sets ...Set) *Monitor {
	m := &Monitor{sets: sets, seen: make([][]int64, len(sets))}
	for s, set := range sets {
		m.seen[s] = make([]int64, len(set.Invariants))
	}
	return m
}

// Step advances every invariant by one event and returns the violations
// the event exposes (a fresh slice, nil when clean).
func (m *Monitor) Step(e *Event) []Violation {
	var out []Violation
	for s, set := range m.sets {
		if set.Fold != nil {
			set.Fold(e)
		}
		for i, inv := range set.Invariants {
			if inv.Needs != "" && !inv.Known() {
				continue
			}
			inScope, bad := inv.Step(e)
			if inScope {
				m.seen[s][i]++
			}
			for _, detail := range bad {
				out = append(out, Violation{
					Property: inv.Name, Detail: detail,
					Loc: e.Loc, At: e.At, LC: e.LC, Trace: e.Trace,
				})
			}
		}
	}
	return out
}

// Coverage reports, per property name in composition order, how many
// events were in scope and which properties are waiting for a fact.
// Invariants that share a name (one property over two consensus modules)
// share an entry.
func (m *Monitor) Coverage() []Coverage {
	var out []Coverage
	at := make(map[string]int)
	for s, set := range m.sets {
		for i, inv := range set.Invariants {
			k, ok := at[inv.Name]
			if !ok {
				k = len(out)
				at[inv.Name] = k
				out = append(out, Coverage{Name: inv.Name})
			}
			out[k].Seen += m.seen[s][i]
			if inv.Needs != "" && !inv.Known() {
				out[k].Skipped = inv.Needs
			}
		}
	}
	return out
}

// CheckTrace steps fresh invariants over a finished trace, once per
// entry, and returns the first violation. It is the whole-trace form of
// what Exhaustive and Fuzz do per delivery.
func CheckTrace(trace []gpm.TraceEntry, sets ...Set) error {
	mon := NewMonitor(sets...)
	for _, t := range trace {
		if vs := mon.Step(&Event{Loc: t.Loc, At: int64(t.At), In: t.In, Outs: t.Outs}); len(vs) > 0 {
			return vs[0]
		}
	}
	return nil
}

// Agreement is the safety property every consensus module owes, in the
// form visible on the wire: within a group, no instance is ever
// announced decided (sent or received) with two different values. Each
// module builds its own from its Decide extractor, so the definition is
// shared and the message format stays with the protocol.
type Agreement struct {
	proto   string
	decided func(hdr string, body any) (inst int, val string, ok bool)
	chosen  map[string]string // group\x00inst → value
}

// NewAgreement builds the property for one module. decided recognises
// the module's decision announcement.
func NewAgreement(proto string, decided func(hdr string, body any) (inst int, val string, ok bool)) *Agreement {
	return &Agreement{proto: proto, decided: decided, chosen: make(map[string]string)}
}

// Decided is the number of instances with a chosen value.
func (a *Agreement) Decided() int { return len(a.chosen) }

// Invariant is the property as a step.
func (a *Agreement) Invariant() Invariant {
	return Invariant{Name: "consensus/single-value-per-slot", Step: a.step}
}

// Validity is the companion property for models whose proposals are
// known: only a proposed value is ever decided.
func (a *Agreement) Validity(proposed map[string]bool) Invariant {
	return Invariant{Name: "consensus/validity", Step: func(e *Event) (bool, []string) {
		return a.decisions(e, func(inst int, val string) string {
			if proposed[val] {
				return ""
			}
			return fmt.Sprintf("%s instance %d decided %q, which was never proposed", a.proto, inst, val)
		})
	}}
}

func (a *Agreement) step(e *Event) (bool, []string) {
	return a.decisions(e, func(inst int, val string) string {
		k := e.Group + "\x00" + strconv.Itoa(inst)
		prev, dup := a.chosen[k]
		if !dup {
			a.chosen[k] = val
		}
		if !dup || prev == val {
			return ""
		}
		return fmt.Sprintf("%s instance %d decided twice: %q and %q", a.proto, inst, prev, val)
	})
}

// decisions judges every decision the event announces, received first.
func (a *Agreement) decisions(e *Event, judge func(inst int, val string) string) (inScope bool, bad []string) {
	note := func(m msg.Msg) {
		inst, val, ok := a.decided(m.Hdr, m.Body)
		if !ok {
			return
		}
		inScope = true
		if detail := judge(inst, val); detail != "" {
			bad = append(bad, detail)
		}
	}
	note(e.In)
	for _, o := range e.Outs {
		note(o.M)
	}
	return inScope, bad
}
