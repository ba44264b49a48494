package verify

import "fmt"

// The property registry records the correctness properties each protocol
// module carries and how each is discharged, mirroring the last column of
// Table I in the paper ("xA/yM": lemmas proved automatically vs. with
// manual help). Here a property is Auto when the generic machinery
// (Exhaustive, Fuzz, CheckRefinement, CheckInductive) discharges it with
// no protocol-specific harness beyond stating the property, and Manual
// when a hand-written validator or scenario driver was required.

// Mode classifies how a property is discharged.
type Mode int

// The discharge modes.
const (
	// Auto marks properties checked by the generic checkers alone.
	Auto Mode = iota + 1
	// Manual marks properties needing a protocol-specific harness.
	Manual
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "A"
	case Manual:
		return "M"
	default:
		return "?"
	}
}

// Property is one correctness property of a module.
type Property struct {
	// Module is the protocol the property belongs to (e.g. "CLK",
	// "TwoThird", "Paxos-Synod", "Broadcast").
	Module string
	// Name identifies the property (e.g. "agreement").
	Name string
	// Mode records how it is discharged.
	Mode Mode
	// Check runs the property check.
	Check func() error
}

// Suite is an ordered collection of properties.
type Suite struct {
	props []Property
}

// Add registers properties in the suite.
func (s *Suite) Add(ps ...Property) {
	s.props = append(s.props, ps...)
}

// Properties returns the registered properties.
func (s *Suite) Properties() []Property {
	return append([]Property(nil), s.props...)
}

// Counts summarizes a module's properties as the Table I "xA/yM" pair.
type Counts struct {
	Auto, Manual int
}

// String renders a Counts in Table I style.
func (c Counts) String() string { return fmt.Sprintf("%dA/%dM", c.Auto, c.Manual) }

// CountByModule tallies the registered properties per module.
func (s *Suite) CountByModule() map[string]Counts {
	out := make(map[string]Counts)
	for _, p := range s.props {
		c := out[p.Module]
		switch p.Mode {
		case Auto:
			c.Auto++
		case Manual:
			c.Manual++
		}
		out[p.Module] = c
	}
	return out
}
