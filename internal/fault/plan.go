package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"shadowdb/internal/msg"
)

// Duration is a time.Duration that unmarshals from JSON either as a
// number of nanoseconds or as a Go duration string ("150ms", "3s").
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a nanosecond number or a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("fault: bad duration %q: %w", x, err)
		}
		*d = Duration(parsed)
		return nil
	default:
		return fmt.Errorf("fault: bad duration %v", v)
	}
}

// Match selects messages by source, destination, and header. Empty
// fields match anything, so the zero Match matches every message.
type Match struct {
	// Src/Dst restrict the edge ("" = any).
	Src msg.Loc `json:"src,omitempty"`
	Dst msg.Loc `json:"dst,omitempty"`
	// Hdr restricts the message header ("" = any).
	Hdr string `json:"hdr,omitempty"`
}

// Hits reports whether the match selects (src, dst, hdr).
func (m Match) Hits(src, dst msg.Loc, hdr string) bool {
	return (m.Src == "" || m.Src == src) &&
		(m.Dst == "" || m.Dst == dst) &&
		(m.Hdr == "" || m.Hdr == hdr)
}

// Rule is one probabilistic message fault, active inside [From, To).
// A matched message is judged once, sender-side: with probability Prob
// it is dropped (Drop), delayed by Delay plus a deterministic jitter in
// [0, Jitter) (delay on a FIFO link reorders), and duplicated Dup extra
// times. Drop wins over delay/duplicate within one rule.
type Rule struct {
	Match Match `json:"match"`
	// From/To bound the fault window on the run clock (To 0 = forever).
	From Duration `json:"from,omitempty"`
	To   Duration `json:"to,omitempty"`
	// Prob is the per-message firing probability in [0,1]; 0 means 1
	// (always fire — a deterministic rule).
	Prob float64 `json:"prob,omitempty"`
	// Drop discards the message.
	Drop bool `json:"drop,omitempty"`
	// Delay postpones delivery; Jitter adds a per-message deterministic
	// extra in [0, Jitter).
	Delay  Duration `json:"delay,omitempty"`
	Jitter Duration `json:"jitter,omitempty"`
	// Dup re-sends the message this many extra times.
	Dup int `json:"dup,omitempty"`
	// MaxHits bounds how many messages the rule may fire on (0 =
	// unbounded).
	MaxHits int `json:"max_hits,omitempty"`
}

func (r Rule) active(now time.Duration) bool {
	if now < r.From.D() {
		return false
	}
	return r.To == 0 || now < r.To.D()
}

// Partition blocks traffic between the node sets A and B inside
// [From, To). Symmetric blocks both directions; otherwise only A→B is
// blocked (an asymmetric partition: B still reaches A).
type Partition struct {
	From Duration  `json:"from,omitempty"`
	To   Duration  `json:"to,omitempty"` // 0 = never heals
	A    []msg.Loc `json:"a"`
	B    []msg.Loc `json:"b"`
	// Symmetric blocks B→A too.
	Symmetric bool `json:"symmetric,omitempty"`
}

func (p Partition) active(now time.Duration) bool {
	if now < p.From.D() {
		return false
	}
	return p.To == 0 || now < p.To.D()
}

// blocks reports whether the partition blocks src→dst while active.
func (p Partition) blocks(src, dst msg.Loc) bool {
	if contains(p.A, src) && contains(p.B, dst) {
		return true
	}
	return p.Symmetric && contains(p.B, src) && contains(p.A, dst)
}

func contains(ls []msg.Loc, l msg.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// Isolate builds the partition that cuts island off from every other
// location in all, both directions, inside [from, to) — the shard-level
// fault of the sharded deployment: one shard's broadcast nodes and
// replicas keep talking to each other while the router, the clients,
// and every other shard cannot reach them (nor they anyone else).
func Isolate(from, to Duration, island []msg.Loc, all []msg.Loc) Partition {
	rest := make([]msg.Loc, 0, len(all))
	for _, l := range all {
		if !contains(island, l) {
			rest = append(rest, l)
		}
	}
	return Partition{From: from, To: to, A: island, B: rest, Symmetric: true}
}

// Crash schedules a node failure at At. RestartAfter 0 means the node
// stays down; otherwise it restarts that long after the crash with the
// state it crashed with (BindProcess rebuilds it from its store).
type Crash struct {
	At   Duration `json:"at"`
	Node msg.Loc  `json:"node"`
	// RestartAfter is the downtime (0 = crash-stop, no restart).
	RestartAfter Duration `json:"restart_after,omitempty"`
	// CorruptTail flips bytes in the last record of the node's newest WAL
	// segment before the restart — the torn-write / dying-disk failure
	// mode. Only meaningful under a process nemesis with a data directory
	// (BindProcess); ignored for in-simulator state retention.
	CorruptTail bool `json:"corrupt_tail,omitempty"`
}

// Rolling is a first-class rolling-restart scenario: starting at
// StartAt, the named nodes are killed one after another, Stagger apart,
// each restarting after Downtime with its durable state retained. It is
// sugar over Crash — EffectiveCrashes expands it deterministically — so
// every binding (BindCluster, BindProcess, StartNemesis) and the
// injection fingerprint treat a rolling restart exactly like the
// equivalent hand-written crash schedule.
type Rolling struct {
	// StartAt is when the first node is killed.
	StartAt Duration `json:"start_at"`
	// Nodes are killed in list order.
	Nodes []msg.Loc `json:"nodes"`
	// Downtime is each node's time down before its restart.
	Downtime Duration `json:"downtime"`
	// Stagger separates consecutive kills. Stagger >= Downtime keeps at
	// most one node down at a time (the classic rolling restart);
	// smaller values overlap the windows deliberately.
	Stagger Duration `json:"stagger"`
	// CorruptTail flips the WAL tail of every restarted node (see
	// Crash.CorruptTail).
	CorruptTail bool `json:"corrupt_tail,omitempty"`
}

// Crashes expands the scenario into its Crash entries.
func (r Rolling) Crashes() []Crash {
	out := make([]Crash, 0, len(r.Nodes))
	for i, n := range r.Nodes {
		out = append(out, Crash{
			At:           r.StartAt + Duration(int64(i))*r.Stagger,
			Node:         n,
			RestartAfter: r.Downtime,
			CorruptTail:  r.CorruptTail,
		})
	}
	return out
}

// SlowDisk degrades one node's execution inside [At, Until): every
// costed handler step on the node reports Factor times its normal
// cost. It models a dying or contended disk — the node stays up,
// answers messages, and votes, but falls behind — the gray failure
// that overload control must degrade through gracefully (a crash
// removes load; a slow node keeps accepting it).
type SlowDisk struct {
	At    Duration `json:"at"`
	Until Duration `json:"until"` // 0 = never heals
	Node  msg.Loc  `json:"node"`
	// Factor multiplies the node's execution cost (>= 1).
	Factor float64 `json:"factor"`
}

func (s SlowDisk) active(now time.Duration) bool {
	if now < s.At.D() {
		return false
	}
	return s.Until == 0 || now < s.Until.D()
}

// Plan is a complete fault script.
type Plan struct {
	// Seed drives every probabilistic decision. Same plan + same seed =
	// same decisions for the same message sequence.
	Seed uint64 `json:"seed"`
	// Rules are the probabilistic message faults.
	Rules []Rule `json:"rules,omitempty"`
	// Partitions are the timed link cuts.
	Partitions []Partition `json:"partitions,omitempty"`
	// Crashes are the node crash-restart events.
	Crashes []Crash `json:"crashes,omitempty"`
	// Rolling are rolling-restart scenarios, expanded into crashes by
	// EffectiveCrashes.
	Rolling []Rolling `json:"rolling,omitempty"`
	// SlowDisks are timed execution-cost degradations (gray failures).
	SlowDisks []SlowDisk `json:"slow_disks,omitempty"`
}

// EffectiveCrashes returns the plan's explicit crashes followed by the
// expansion of every rolling scenario, in declaration order. All crash
// consumers (BindCluster, BindProcess, StartNemesis) schedule from this
// list, so a Rolling behaves bit-identically to its expansion.
func (p Plan) EffectiveCrashes() []Crash {
	if len(p.Rolling) == 0 {
		return p.Crashes
	}
	out := append([]Crash(nil), p.Crashes...)
	for _, r := range p.Rolling {
		out = append(out, r.Crashes()...)
	}
	return out
}

// Validate rejects nonsensical plans (negative windows, probabilities
// outside [0,1], malformed location or header references, crashes
// without a node). Every error names the offending entry by position.
func (p Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("fault: rule %d: prob %v outside [0,1]", i, r.Prob)
		}
		if r.From < 0 || r.To < 0 {
			return fmt.Errorf("fault: rule %d: negative window bound", i)
		}
		if r.To != 0 && r.To < r.From {
			return fmt.Errorf("fault: rule %d: window ends before it starts", i)
		}
		if !r.Drop && r.Delay == 0 && r.Jitter == 0 && r.Dup == 0 {
			return fmt.Errorf("fault: rule %d: no effect (set drop, delay, or dup)", i)
		}
		if r.Delay < 0 || r.Jitter < 0 {
			return fmt.Errorf("fault: rule %d: negative delay or jitter", i)
		}
		if r.Dup < 0 {
			return fmt.Errorf("fault: rule %d: negative dup", i)
		}
		if r.MaxHits < 0 {
			return fmt.Errorf("fault: rule %d: negative max_hits", i)
		}
		if err := wellFormedRef(string(r.Match.Src)); err != nil {
			return fmt.Errorf("fault: rule %d: src: %w", i, err)
		}
		if err := wellFormedRef(string(r.Match.Dst)); err != nil {
			return fmt.Errorf("fault: rule %d: dst: %w", i, err)
		}
		if err := wellFormedRef(r.Match.Hdr); err != nil {
			return fmt.Errorf("fault: rule %d: hdr: %w", i, err)
		}
	}
	for i, pt := range p.Partitions {
		if pt.From < 0 || pt.To < 0 {
			return fmt.Errorf("fault: partition %d: negative window bound", i)
		}
		if pt.To != 0 && pt.To < pt.From {
			return fmt.Errorf("fault: partition %d: window ends before it starts", i)
		}
		if len(pt.A) == 0 || len(pt.B) == 0 {
			return fmt.Errorf("fault: partition %d: empty side", i)
		}
		for _, l := range append(append([]msg.Loc(nil), pt.A...), pt.B...) {
			if err := wellFormedRef(string(l)); err != nil || l == "" {
				return fmt.Errorf("fault: partition %d: bad location %q", i, l)
			}
		}
	}
	for i, c := range p.Crashes {
		if c.Node == "" {
			return fmt.Errorf("fault: crash %d: missing node", i)
		}
		if err := wellFormedRef(string(c.Node)); err != nil {
			return fmt.Errorf("fault: crash %d: node: %w", i, err)
		}
		if c.At < 0 {
			return fmt.Errorf("fault: crash %d: negative crash time", i)
		}
		if c.RestartAfter < 0 {
			return fmt.Errorf("fault: crash %d: negative restart_after", i)
		}
		if c.CorruptTail && c.RestartAfter == 0 {
			return fmt.Errorf("fault: crash %d: corrupt_tail without a restart has no observable effect", i)
		}
	}
	for i, r := range p.Rolling {
		if len(r.Nodes) == 0 {
			return fmt.Errorf("fault: rolling %d: no nodes", i)
		}
		for _, n := range r.Nodes {
			if n == "" {
				return fmt.Errorf("fault: rolling %d: empty node", i)
			}
			if err := wellFormedRef(string(n)); err != nil {
				return fmt.Errorf("fault: rolling %d: node: %w", i, err)
			}
		}
		if r.StartAt < 0 {
			return fmt.Errorf("fault: rolling %d: negative start_at", i)
		}
		if r.Downtime <= 0 {
			return fmt.Errorf("fault: rolling %d: downtime must be positive (a rolling restart restarts)", i)
		}
		if r.Stagger < 0 {
			return fmt.Errorf("fault: rolling %d: negative stagger", i)
		}
		if len(r.Nodes) > 1 && r.Stagger == 0 {
			return fmt.Errorf("fault: rolling %d: zero stagger with %d nodes is a mass restart, not a rolling one", i, len(r.Nodes))
		}
	}
	for i, s := range p.SlowDisks {
		if s.Node == "" {
			return fmt.Errorf("fault: slow_disk %d: missing node", i)
		}
		if err := wellFormedRef(string(s.Node)); err != nil {
			return fmt.Errorf("fault: slow_disk %d: node: %w", i, err)
		}
		if s.At < 0 || s.Until < 0 {
			return fmt.Errorf("fault: slow_disk %d: negative window bound", i)
		}
		if s.Until != 0 && s.Until < s.At {
			return fmt.Errorf("fault: slow_disk %d: window ends before it starts", i)
		}
		if s.Factor < 1 {
			return fmt.Errorf("fault: slow_disk %d: factor %v below 1 (a slow disk slows)", i, s.Factor)
		}
	}
	return nil
}

// wellFormedRef rejects location/header references that can only be
// typos: whitespace, control characters, or the '|' the trace layer
// uses as a field separator. Empty is fine (it means "any").
func wellFormedRef(s string) error {
	for _, r := range s {
		if r <= ' ' || r == '|' || r == 0x7f {
			return fmt.Errorf("malformed reference %q", s)
		}
	}
	return nil
}

// Load reads a JSON plan from a file and validates it. Unknown fields
// are rejected (a misspelled knob must not silently deactivate a
// fault), with the input offset of the failure in the error.
func Load(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: parse %s (at byte %d): %w", path, dec.InputOffset(), err)
	}
	// Trailing garbage after the plan object is a malformed file too.
	if dec.More() {
		return Plan{}, fmt.Errorf("fault: parse %s: trailing data after plan (at byte %d)", path, dec.InputOffset())
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}
