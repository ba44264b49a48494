//go:build !race

package broadcast

import (
	"testing"

	"shadowdb/internal/member"
	"shadowdb/internal/msg"
)

// A service node folds every delivered slot into its membership view,
// and a transaction payload is told from a command by its codec tag
// alone: folding a full batch of deposits allocates nothing. (The race
// detector adds allocations of its own, so this runs without it.)
func TestViewFoldAllocs(t *testing.T) {
	// A deposit as core.EncodeTx writes it: TxRequest's tag 0x10, then
	// its client, seq, type, arguments and deadline.
	deposit, err := msg.Append([]byte{0x10}, func(w *msg.Writer) {
		w.Loc("cli")
		w.Int64(1)
		w.Text("deposit")
		w.Values([]any{int64(7), int64(10)})
		w.Int64(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Bcast, 16)
	for i := range batch {
		batch[i] = Bcast{From: "cli", Seq: int64(i + 1), Payload: deposit}
	}
	v := member.NewView(member.Config{Bcast: []msg.Loc{"b1"}, Replicas: []msg.Loc{"r1"}}, 8)
	if n := testing.AllocsPerRun(100, func() { foldCommands(v, batch, 1) }); n != 0 {
		t.Errorf("folding 16 deposits into the view allocated %.0f times, want 0", n)
	}
	add := member.EncodeCommand(member.Command{Op: member.AddReplica, Node: "r2"})
	foldCommands(v, append(batch, Bcast{From: "admin", Seq: 1, Payload: add}), 2)
	if !v.Current().HasReplica("r2") {
		t.Error("the fold missed the command behind the deposits")
	}
}
