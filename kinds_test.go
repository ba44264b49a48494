package shadowdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/core"
)

// Every argument kind that commits a deposit as an int64 does keeps
// doing so (the codec widens an int32 or a float32 as the SQL layer
// does); any other kind is refused by Exec before anything is sent, with
// an error naming it. A procedure whose result holds such a kind aborts,
// rolled back and answered alike at every replica.
func TestValueKindsThroughOpen(t *testing.T) {
	committed := []any{int64(10), 10, int32(10), float32(10), float64(10)}
	refused := []any{int8(10), int16(10), uint(10), uint8(10), uint16(10), uint32(10), uint64(10), []byte("10")}
	for _, mode := range []Mode{SMR, PBR} {
		t.Run(mode.role(), func(t *testing.T) {
			cfg := bankConfig(mode)
			cfg.Procedures = core.BankRegistry()
			cfg.Procedures["odd"] = func(db *DB, args []any) (ProcResult, error) {
				if _, err := db.Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 0"); err != nil {
					return ProcResult{}, err
				}
				return ProcResult{Cols: []string{"v"}, Rows: [][]any{{uint64(1)}}}, nil
			}
			cluster, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cluster.Close() })
			cli, err := cluster.Client()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cli.Close() })
			balance := func(id int64) any {
				t.Helper()
				res, err := cli.ExecTimeout(10*time.Second, "balance", id)
				if err != nil || len(res.Rows) != 1 {
					t.Fatalf("balance(%d) = %v, %v", id, res.Rows, err)
				}
				return res.Rows[0][0]
			}
			for i, v := range committed {
				id := int64(10 + i)
				if res, err := cli.ExecTimeout(10*time.Second, "deposit", id, v); err != nil || res.Aborted {
					t.Errorf("deposit of a %T: %v (aborted %v)", v, err, res.Aborted)
				}
				if got := balance(id); got != int64(1010) {
					t.Errorf("deposit of a %T: balance %v, want 1010", v, got)
				}
			}
			for i, v := range refused {
				id := int64(30 + i)
				name := fmt.Sprintf("%T", v)
				_, err := cli.ExecTimeout(10*time.Second, "deposit", id, v)
				if err == nil || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), name) {
					t.Errorf("deposit of a %s: %v, want a refusal naming %s", name, err, name)
				}
				if got := balance(id); got != int64(1000) {
					t.Errorf("refused deposit of a %s: balance %v, want 1000", name, got)
				}
			}
			if _, err := cli.ExecTimeout(10*time.Second, "odd"); err == nil || !strings.Contains(err.Error(), "uint64") {
				t.Errorf("a result holding a uint64: %v, want an error naming uint64", err)
			}
			// Every replica that executed the procedure recorded the same
			// abort (SMR: all three; PBR: the primary and its backup) as
			// its client's newest result.
			deadline := time.Now().Add(5 * time.Second)
			for {
				var got []string
				eachExecutor(cluster, func(e *core.Executor) {
					for _, res := range e.RecentResults() {
						if res.Client == "client1" && res.Aborted && strings.Contains(res.Err, "uint64") {
							got = append(got, res.Err)
						}
					}
				})
				want := map[Mode]int{SMR: 3, PBR: 2}[mode]
				if len(got) >= want && strings.Count(strings.Join(got, "\n"), got[0]) == len(got) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replicas recorded %q, want the same abort at %d of them", got, want)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got := balance(0); got != int64(1000) {
				t.Errorf("the aborted procedure's update stayed: balance %v, want 1000", got)
			}
		})
	}
}
