package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/runtime"
	"shadowdb/internal/store"
)

// opLog is a store.Stable that writes the calls the ack contract is
// about — Append (with the slot journaled), Sync, SaveSnapshot — onto a
// timeline the test also writes the replica's directives onto.
type opLog struct {
	store.Stable
	mu       sync.Mutex
	timeline []string
}

func (l *opLog) note(ev string) {
	l.mu.Lock()
	l.timeline = append(l.timeline, ev)
	l.mu.Unlock()
}

func (l *opLog) Append(rec []byte) error {
	w, err := msg.DecodeBody[broadcast.Deliver](rec)
	if err != nil {
		return err
	}
	l.note(fmt.Sprintf("append:%d", w.Slot))
	return l.Stable.Append(rec)
}

func (l *opLog) Sync() error {
	l.note("sync")
	return l.Stable.Sync()
}

func (l *opLog) SaveSnapshot(snap []byte) error {
	l.note("snap")
	return l.Stable.SaveSnapshot(snap)
}

func (l *opLog) events() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.timeline...)
}

// noteOuts writes a step's directives onto the timeline: "ack:N" for
// the reply to depositDeliver(N)'s transaction, "tick" for a zero-delay
// self-addressed HdrSyncTick, and anything else under its own name so
// that an expected timeline rules it out.
func (l *opLog) noteOuts(slf msg.Loc, outs []msg.Directive) {
	for _, o := range outs {
		switch {
		case o.Delay > 0:
			l.note(fmt.Sprintf("timer:%s", o.M.Hdr))
		case o.M.Hdr == HdrTxResult:
			l.note(fmt.Sprintf("ack:%d", o.M.Body.(TxResult).Seq-1))
		case o.M.Hdr == HdrSyncTick && o.Dest == slf:
			l.note("tick")
		default:
			l.note(fmt.Sprintf("send:%s", o.M.Hdr))
		}
	}
}

// checkCovered is the write-ahead contract on a timeline: no ack
// precedes a Sync or SaveSnapshot that follows its slot's Append.
func checkCovered(t *testing.T, timeline []string) {
	t.Helper()
	appended := map[string]bool{} // slots journaled so far
	covered := map[string]bool{}  // ... and under an fsync
	for i, ev := range timeline {
		kind, slot, _ := strings.Cut(ev, ":")
		switch kind {
		case "append":
			appended[slot] = true
		case "sync", "snap":
			for s := range appended {
				covered[s] = true
			}
		case "ack":
			if !covered[slot] {
				t.Errorf("event %d acknowledges slot %s before an fsync covers it: %v", i, slot, timeline)
			}
		}
	}
}

// newGCReplica builds a durable, populated replica with group commit
// capped at every slots, journaling to a fresh opLog whose timeline
// starts after the baseline snapshot.
func newGCReplica(t *testing.T, slf msg.Loc, every int) (*SMRReplica, *opLog) {
	t.Helper()
	log := &opLog{Stable: mustOpen(t, store.NewMem(), "smr")}
	r, err := NewDurableSMRReplica(slf, bankDB(t, "gc-"+t.Name()+"-"+string(slf), 4), BankRegistry(), log, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetGroupCommit(every, 0)
	log.timeline = nil
	return r, log
}

// tokens renders "d0 d1 … d(n-1)" style runs for the table below.
func tokens(prefix string, from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&b, "%s%d ", prefix, i)
	}
	return strings.TrimSpace(b.String())
}

// The group-commit window, one row per way it can close. Each row
// steps a script through one replica and pins the whole timeline of
// store calls and directives:
//
//	dN   deliver slot N carrying one deposit (acked as ack:N)
//	lN   deliver slot N carrying a lease renewal for r1 (ack-free)
//	cN-M a peer's catch-up carrying slots N..M (applied quietly)
//	t    a HdrSyncTick arrives (scripts decide which ticks arrive, so
//	     leaving one out is a tick the transport dropped)
func TestGroupCommitWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slf   msg.Loc // r1 holds the lease when lease is set, r2 follows
		lease bool
		every int
		in    string
		want  string
	}{
		{
			name: "an idle replica's window is one slot and no timer",
			slf:  "r1", every: 4,
			in:   "d0 t",
			want: "append:0 tick sync ack:0",
		},
		{
			name: "a backlog of deliveries shares the one sync behind it",
			slf:  "r1", every: 4,
			in:   "d0 d1 d2 t",
			want: "append:0 tick append:1 append:2 sync ack:0 ack:1 ack:2",
		},
		{
			name: "every slots release inline and the late tick owes nothing",
			slf:  "r1", every: 4,
			in:   "d0 d1 d2 d3 t",
			want: "append:0 tick append:1 append:2 append:3 sync ack:0 ack:1 ack:2 ack:3",
		},
		{
			name: "each window arms its own tick",
			slf:  "r1", every: 4,
			in:   "d0 t d1 d2 t t",
			want: "append:0 tick sync ack:0 append:1 tick append:2 sync ack:1 ack:2",
		},
		{
			name: "a lease renewal arms nothing and owes nothing",
			slf:  "r1", lease: true, every: 4,
			in:   "l0 t",
			want: "append:0",
		},
		{
			name: "a renewal's append rides the next ack-bearing window",
			slf:  "r1", lease: true, every: 4,
			in:   "l0 d1 l2 t",
			want: "append:0 append:1 tick append:2 sync ack:1",
		},
		{
			name: "a suppressed ack arms nothing and owes nothing",
			slf:  "r2", lease: true, every: 4,
			in:   "l0 d1 t",
			want: "append:0 append:1",
		},
		{
			name: "quiet catch-up arms nothing and owes nothing",
			slf:  "r1", every: 4,
			in:   "c0-2 t d3 t",
			want: "append:0 append:1 append:2 append:3 tick sync ack:3",
		},
		{
			name: "a compaction's snapshot releases without a sync",
			slf:  "r1", every: 2 * DefaultSnapEvery,
			in:   tokens("d", 0, DefaultSnapEvery) + " t",
			want: "append:0 tick " + tokens("append:", 1, DefaultSnapEvery) + " snap " + tokens("ack:", 0, DefaultSnapEvery),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, log := newGCReplica(t, tc.slf, tc.every)
			if tc.lease {
				enableTestLease(t, r, tc.slf).now = time.Second
			}
			num := func(s string) int {
				n, err := strconv.Atoi(s)
				if err != nil {
					t.Fatalf("script %q: %v", tc.in, err)
				}
				return n
			}
			for _, tok := range strings.Fields(tc.in) {
				var m msg.Msg
				switch arg := tok[1:]; tok[0] {
				case 'd':
					m = msg.M(broadcast.HdrDeliver, depositDeliver(t, num(arg)))
				case 'l':
					slot := num(arg)
					m = msg.M(broadcast.HdrDeliver, broadcast.Deliver{Slot: slot, Msgs: []broadcast.Bcast{{
						From: "r1", Seq: int64(slot + 1),
						Payload: EncodeLease(LeaseRenewal{Holder: "r1", Issue: time.Second, Seq: int64(slot + 1)}),
					}}})
				case 'c':
					from, to, _ := strings.Cut(arg, "-")
					var cu Catchup
					for s := num(from); s <= num(to); s++ {
						cu.Records = append(cu.Records, slotRecord(t, s))
					}
					m = msg.M(HdrCatchup, cu)
				case 't':
					m = msg.M(HdrSyncTick, nil)
				}
				_, outs := r.Step(m)
				log.noteOuts(tc.slf, outs)
			}
			got := log.events()
			if strings.Join(got, " ") != tc.want {
				t.Errorf("script %q\n got  %s\n want %s", tc.in, strings.Join(got, " "), tc.want)
			}
			checkCovered(t, got)
			if len(r.parked) != 0 || r.unsyncedSlots != 0 {
				t.Errorf("script ends with %d acks parked over %d slots", len(r.parked), r.unsyncedSlots)
			}
		})
	}
}

// A tick the transport drops (network.TCP.loopback and network.Hub both
// drop a self-send into a full inbox) must not end ticks for good: the
// window it was meant to close still closes by count, and the next
// window's first slot arms a fresh one.
func TestGroupCommitSurvivesALostTick(t *testing.T) {
	r, log := newGCReplica(t, "r1", 4)
	ticks := func(outs []msg.Directive) (n int) {
		for _, o := range outs {
			if o.M.Hdr == HdrSyncTick {
				n++
			}
		}
		return n
	}
	if n := ticks(stepDeliver(r, depositDeliver(t, 0))); n != 1 {
		t.Fatalf("slot 0 armed %d ticks, want 1", n)
	}
	// That tick is lost. Slots 1..3 fill the window, which releases
	// inline under one sync.
	for s := 1; s <= 3; s++ {
		log.noteOuts("r1", stepDeliver(r, depositDeliver(t, s)))
	}
	if got, want := strings.Join(log.events(), " "), "append:0 append:1 append:2 append:3 sync ack:0 ack:1 ack:2 ack:3"; got != want {
		t.Fatalf("window with a lost tick:\n got  %s\n want %s", got, want)
	}
	// The next window must not believe a tick is still on its way.
	if n := ticks(stepDeliver(r, depositDeliver(t, 4))); n != 1 {
		t.Fatalf("slot 4, first of a new window, armed %d ticks, want 1", n)
	}
	_, outs := r.Step(msg.M(HdrSyncTick, nil))
	log.noteOuts("r1", outs)
	got := log.events()
	if tail := strings.Join(got[len(got)-3:], " "); tail != "append:4 sync ack:4" {
		t.Errorf("slot 4's window closed with %q, want one further sync then its ack", tail)
	}
	checkCovered(t, got)
}

// The same step function on a real runtime.Host over a network.Hub:
// the Hub's inbox is FIFO, so the tick the first delivery arms lands
// behind the three deliveries already queued, and four slots cost one
// journal fsync.
func TestGroupCommitOnHostSyncsOncePerBacklog(t *testing.T) {
	r, log := newGCReplica(t, "r1", 8)
	hub := network.NewHub()
	defer hub.Close()
	tr, err := hub.Register("r1")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := hub.Register("c0")
	if err != nil {
		t.Fatal(err)
	}
	h := runtime.NewHost("r1", tr, r)
	h.Obs = obs.New(0)
	// Injected before Start: the four deliveries are in the inbox, back
	// to back, when the host takes its first step.
	for s := 0; s < 4; s++ {
		h.Inject(msg.M(broadcast.HdrDeliver, depositDeliver(t, s)))
	}
	h.Start()
	for s := 0; s < 4; s++ {
		select {
		case env := <-cli.Receive():
			if env.M.Hdr != HdrTxResult || env.M.Body.(TxResult).Seq != int64(s+1) {
				t.Fatalf("reply %d = %v, want the result of seq %d", s, env.M, s+1)
			}
			log.note(fmt.Sprintf("ack:%d", s))
		case <-time.After(10 * time.Second):
			t.Fatalf("no reply for slot %d; store saw %v", s, log.events())
		}
	}
	h.Close()
	got := log.events()
	if want := "append:0 append:1 append:2 append:3 sync ack:0 ack:1 ack:2 ack:3"; strings.Join(got, " ") != want {
		t.Errorf("host timeline\n got  %s\n want %s", strings.Join(got, " "), want)
	}
	checkCovered(t, got)
}
