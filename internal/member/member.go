package member

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"shadowdb/internal/msg"
)

// Op is a membership operation.
type Op string

// The membership operations.
const (
	AddReplica     Op = "add-replica"
	RemoveReplica  Op = "remove-replica"
	AddAcceptor    Op = "add-acceptor"
	RemoveAcceptor Op = "remove-acceptor"
)

// Command is one membership change, carried through the broadcast
// order as an opaque payload: one body of the wire codec, whose tag
// tells it from the other payloads the order carries. Addr is the
// joiner's network address for live deployments — ordering it with the
// command means every node learns the route exactly when it learns the
// member; the simulator ignores it.
type Command struct {
	Op   Op
	Node msg.Loc
	Addr string
}

// cmdTag is the Command codec's tag (DESIGN.md §8 "Wire tags").
const cmdTag = 0x70

func init() { msg.RegisterCodec(cmdTag, Command{}, appendCommand, readCommand) }

func appendCommand(w *msg.Writer, c Command) {
	w.Text(string(c.Op))
	w.Loc(c.Node)
	w.Text(c.Addr)
}

var errCommand = errors.New("member: a command needs a known op and a node")

func readCommand(r *msg.Reader) Command {
	c := Command{Op: Op(r.Text()), Node: r.Loc(), Addr: r.Text()}
	switch c.Op {
	case AddReplica, RemoveReplica, AddAcceptor, RemoveAcceptor:
		if c.Node != "" {
			return c
		}
	}
	r.Fail(errCommand)
	return c
}

// EncodeCommand renders c as a broadcast payload.
func EncodeCommand(c Command) []byte {
	b, _ := msg.AppendBody(nil, c) // a Command is strings, which always encode
	return b
}

// DecodeCommand parses a broadcast payload; ok is false when the
// payload is not a membership command. Another kind of payload is told
// by its tag and costs nothing.
func DecodeCommand(b []byte) (Command, bool) {
	if msg.PayloadTag(b) != cmdTag {
		return Command{}, false
	}
	c, err := msg.DecodeBody[Command](b)
	return c, err == nil
}

// Config is one configuration epoch: the broadcast/acceptor membership
// and the SMR replica set, with the slots at which each facet takes
// effect. Bcast[0] is the sequencer; derivation never removes it, so
// the slot numbering authority is stable across every epoch.
type Config struct {
	// Epoch numbers configurations densely from 0.
	Epoch int `json:"epoch"`
	// ActivateAt is the first Synod instance whose quorums are drawn
	// from this epoch's Bcast set.
	ActivateAt int `json:"activate_at"`
	// ReplicasFrom is the first slot whose delivery fan-out targets
	// this epoch's Replicas.
	ReplicasFrom int `json:"replicas_from"`
	// Bcast is the broadcast service membership (acceptors/learners).
	Bcast []msg.Loc `json:"bcast"`
	// Replicas is the SMR learner set.
	Replicas []msg.Loc `json:"replicas"`
}

// HasAcceptor reports whether l is in the epoch's broadcast set.
func (c Config) HasAcceptor(l msg.Loc) bool { return has(c.Bcast, l) }

// HasReplica reports whether l is in the epoch's replica set.
func (c Config) HasReplica(l msg.Loc) bool { return has(c.Replicas, l) }

func has(ls []msg.Loc, l msg.Loc) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// Fingerprint canonically renders the epoch for conflict detection:
// two nodes deriving different fingerprints for the same epoch number
// have diverged. Member order is part of the fingerprint — Bcast[0]
// names the sequencer and Replicas[0] the snapshot proposer, so order
// disagreement is real disagreement.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("e%d@a%d,r%d|b:%s|r:%s",
		c.Epoch, c.ActivateAt, c.ReplicasFrom, locList(c.Bcast), locList(c.Replicas))
}

func locList(ls []msg.Loc) string {
	ss := make([]string, len(ls))
	for i, l := range ls {
		ss[i] = string(l)
	}
	return strings.Join(ss, ",")
}

// Proposer picks the replica that pushes the bootstrap snapshot to a
// joiner: the first replica of the pre-join epoch that is not the
// joiner itself. Every replica computes the same answer from the same
// delivered prefix, so exactly one pushes.
func Proposer(prev Config, joiner msg.Loc) msg.Loc {
	for _, l := range prev.Replicas {
		if l != joiner {
			return l
		}
	}
	return ""
}

// derive computes the successor epoch for cmd ordered at slot, or ok
// false when the command is a no-op under the current epoch (adding a
// present member, removing an absent or last or sequencer member).
// It is a pure function: every node derives the same schedule.
func derive(last Config, cmd Command, slot, alpha int) (Config, bool) {
	var bcast, replicas []msg.Loc
	switch cmd.Op {
	case AddAcceptor:
		if last.HasAcceptor(cmd.Node) {
			return Config{}, false
		}
		bcast = append(append([]msg.Loc{}, last.Bcast...), cmd.Node)
		replicas = last.Replicas
	case RemoveAcceptor:
		// The sequencer (Bcast[0]) cannot be removed: it is the slot
		// numbering authority. Handing it over is a separate protocol.
		if !last.HasAcceptor(cmd.Node) || len(last.Bcast) <= 1 || cmd.Node == last.Bcast[0] {
			return Config{}, false
		}
		bcast = remove(last.Bcast, cmd.Node)
		replicas = last.Replicas
	case AddReplica:
		if last.HasReplica(cmd.Node) {
			return Config{}, false
		}
		bcast = last.Bcast
		replicas = append(append([]msg.Loc{}, last.Replicas...), cmd.Node)
	case RemoveReplica:
		if !last.HasReplica(cmd.Node) || len(last.Replicas) <= 1 {
			return Config{}, false
		}
		bcast = last.Bcast
		replicas = remove(last.Replicas, cmd.Node)
	default:
		return Config{}, false
	}
	next := Config{
		Epoch:        last.Epoch + 1,
		ActivateAt:   slot + alpha,
		ReplicasFrom: slot + 1,
		Bcast:        bcast,
		Replicas:     replicas,
	}
	// Epochs activate in order even if commands land closer together
	// than alpha: a later command's epoch never activates at or before
	// an earlier command's.
	if next.ActivateAt <= last.ActivateAt {
		next.ActivateAt = last.ActivateAt + 1
	}
	if next.ReplicasFrom <= last.ReplicasFrom {
		next.ReplicasFrom = last.ReplicasFrom + 1
	}
	return next, true
}

func remove(ls []msg.Loc, l msg.Loc) []msg.Loc {
	out := make([]msg.Loc, 0, len(ls))
	for _, x := range ls {
		if x != l {
			out = append(out, x)
		}
	}
	return out
}

// View is the runtime epoch schedule: the ascending list of derived
// configurations plus the activation lag. One View may be shared by
// several co-located components (sequencer, replica, admin handler) —
// Apply is idempotent per slot, so whoever delivers a slot first
// applies its command once and everyone observes the result.
type View struct {
	mu      sync.Mutex
	alpha   int
	epochs  []Config
	applied map[int]bool
	// joined records, per location, the slot at which it first became
	// a member (acceptors: ActivateAt; replicas: ReplicasFrom), or 0
	// for charter members. A joining broadcast node baselines its
	// delivery frontier here instead of at slot 0.
	joined  map[msg.Loc]int
	onApply []func(Command, Config)
}

// NewView starts a schedule at the initial configuration. alpha is the
// acceptor activation lag in slots; it must exceed the consensus
// pipeline window (twice the window leaves margin for out-of-order
// decisions) so no instance is proposed under a quorum it predates.
func NewView(initial Config, alpha int) *View {
	if alpha < 1 {
		alpha = 1
	}
	initial.Epoch = 0
	initial.ActivateAt = 0
	initial.ReplicasFrom = 0
	v := &View{
		alpha:   alpha,
		epochs:  []Config{initial},
		applied: map[int]bool{},
		joined:  map[msg.Loc]int{},
	}
	return v
}

// Alpha returns the acceptor activation lag.
func (v *View) Alpha() int { return v.alpha }

// Current returns the latest derived epoch (which may not govern any
// slot yet if its activation lies in the future).
func (v *View) Current() Config {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epochs[len(v.epochs)-1]
}

// Epochs returns the full derived schedule, ascending.
func (v *View) Epochs() []Config {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]Config{}, v.epochs...)
}

// Apply folds a membership command ordered at slot into the schedule.
// It returns the configuration now current and whether this call
// created a new epoch (false on duplicate slots — several co-located
// components may deliver the same slot — and on no-op commands).
func (v *View) Apply(cmd Command, slot int) (Config, bool) {
	v.mu.Lock()
	if v.applied[slot] {
		cfg := v.epochs[len(v.epochs)-1]
		v.mu.Unlock()
		return cfg, false
	}
	v.applied[slot] = true
	last := v.epochs[len(v.epochs)-1]
	next, ok := derive(last, cmd, slot, v.alpha)
	if !ok {
		v.mu.Unlock()
		return last, false
	}
	v.epochs = append(v.epochs, next)
	switch cmd.Op {
	case AddAcceptor:
		if _, was := v.joined[cmd.Node]; !was {
			v.joined[cmd.Node] = next.ActivateAt
		}
	case AddReplica:
		if _, was := v.joined[cmd.Node]; !was {
			v.joined[cmd.Node] = next.ReplicasFrom
		}
	}
	hooks := append([]func(Command, Config){}, v.onApply...)
	v.mu.Unlock()
	for _, h := range hooks {
		h(cmd, next)
	}
	return next, true
}

// OnApply registers a hook invoked after each successful epoch
// derivation (live deployments use it to learn joiner addresses).
func (v *View) OnApply(h func(Command, Config)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.onApply = append(v.onApply, h)
}

// At returns the epoch whose replica fan-out governs slot.
func (v *View) At(slot int) Config {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.findLocked(slot, func(c Config) int { return c.ReplicasFrom })
}

// EpochOf returns the epoch whose acceptor set governs instance inst.
func (v *View) EpochOf(inst int) Config {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.findLocked(inst, func(c Config) int { return c.ActivateAt })
}

func (v *View) findLocked(slot int, key func(Config) int) Config {
	// Epochs are few and ascending; scan from the newest.
	i := sort.Search(len(v.epochs), func(i int) bool { return key(v.epochs[i]) > slot })
	if i == 0 {
		return v.epochs[0]
	}
	return v.epochs[i-1]
}

// AcceptorsFor resolves the Synod acceptor set for instance inst; a
// negative inst asks for the newest set (scouts electing for the whole
// future). This is the synod.Config.AcceptorsFor hook.
func (v *View) AcceptorsFor(inst int) []msg.Loc {
	if inst < 0 {
		return v.Current().Bcast
	}
	return v.EpochOf(inst).Bcast
}

// Learners resolves the Decide fan-out: the newest broadcast set, so
// joining sequencers start learning the moment their epoch is derived.
// This is the synod.Config.LearnersFor hook.
func (v *View) Learners() []msg.Loc { return v.Current().Bcast }

// BaselineOf returns the slot at which loc became a member (0 for
// charter members): a joining broadcast node starts its contiguous
// delivery frontier there instead of waiting forever for slot 0.
func (v *View) BaselineOf(loc msg.Loc) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.joined[loc]
}

// Joined returns a copy of the membership baselines (see BaselineOf),
// for inclusion in snapshots and state transfers.
func (v *View) Joined() map[msg.Loc]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[msg.Loc]int, len(v.joined))
	for l, s := range v.joined {
		out[l] = s
	}
	return out
}

// Adopt merges a transferred epoch schedule — from a durable snapshot
// or a state transfer — into this view. Epochs are derived by one
// deterministic function from one total order, so any two schedules
// agree on their common prefix; Adopt appends the epochs this view has
// not derived yet and records baselines it has not seen. Commands the
// adopting node later delivers for slots the schedule already covers
// are no-ops (derive refuses, e.g., removing an already-absent member),
// so Adopt is safe against replayed tails.
func (v *View) Adopt(epochs []Config, joined map[msg.Loc]int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, c := range epochs {
		if c.Epoch > v.epochs[len(v.epochs)-1].Epoch {
			v.epochs = append(v.epochs, c)
		}
	}
	for l, s := range joined {
		if _, ok := v.joined[l]; !ok {
			v.joined[l] = s
		}
	}
}
