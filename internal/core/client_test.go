package core

import (
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/msg"
)

func TestClientSubmitPBR(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1", "r2"}, Retry: time.Second}
	outs := cli.Submit("deposit", []any{1, 2})
	if !cli.Busy() {
		t.Fatal("client not busy after Submit")
	}
	var toPrimary, retryTimer bool
	for _, o := range outs {
		switch {
		case o.Dest == "r1" && o.M.Hdr == HdrTx:
			toPrimary = true
			req := o.M.Body.(TxRequest)
			if req.Seq != 1 || req.Type != "deposit" {
				t.Errorf("req = %+v", req)
			}
		case o.Dest == "c" && o.M.Hdr == HdrClientRetry && o.Delay == time.Second:
			retryTimer = true
		}
	}
	if !toPrimary || !retryTimer {
		t.Errorf("outs = %v", outs)
	}
}

func TestClientSubmitPanicsWhenBusy(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1"}}
	cli.Submit("x", nil)
	defer func() {
		if recover() == nil {
			t.Error("second Submit did not panic")
		}
	}()
	cli.Submit("y", nil)
}

func TestClientResult(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1"}}
	cli.Submit("x", nil)
	// A result for a different sequence number is ignored.
	res, _ := cli.Handle(msg.M(HdrTxResult, TxResult{Client: "c", Seq: 99}))
	if res != nil {
		t.Error("stale result accepted")
	}
	res, _ = cli.Handle(msg.M(HdrTxResult, TxResult{Client: "c", Seq: 1}))
	if res == nil {
		t.Fatal("matching result dropped")
	}
	if cli.Busy() || cli.Done != 1 {
		t.Errorf("Busy=%v Done=%d", cli.Busy(), cli.Done)
	}
	// Duplicate answers are ignored.
	res, _ = cli.Handle(msg.M(HdrTxResult, TxResult{Client: "c", Seq: 1}))
	if res != nil || cli.Done != 1 {
		t.Error("duplicate answer double-counted")
	}
}

func TestClientRedirect(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1", "r2"}}
	cli.Submit("x", nil)
	_, outs := cli.Handle(msg.M(HdrRedirect, Redirect{Primary: "r2", CfgSeq: 1}))
	found := false
	for _, o := range outs {
		if o.Dest == "r2" && o.M.Hdr == HdrTx {
			found = true
			if o.M.Body.(TxRequest).Seq != 1 {
				t.Error("redirect resent with a new sequence number")
			}
		}
	}
	if !found {
		t.Errorf("redirect did not resend to r2: %v", outs)
	}
}

func TestClientRetryRotates(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1", "r2", "r3"}}
	cli.Submit("x", nil)
	_, outs := cli.Handle(msg.M(HdrClientRetry, ClientRetryBody{Seq: 1}))
	sentTo := msg.Loc("")
	for _, o := range outs {
		if o.M.Hdr == HdrTx {
			sentTo = o.Dest
		}
	}
	if sentTo != "r2" {
		t.Errorf("retry went to %s, want r2", sentTo)
	}
	if cli.Retries != 1 {
		t.Errorf("Retries = %d", cli.Retries)
	}
	// A retry timer for an already-completed request does nothing.
	cli.Handle(msg.M(HdrTxResult, TxResult{Client: "c", Seq: 1}))
	_, outs = cli.Handle(msg.M(HdrClientRetry, ClientRetryBody{Seq: 1}))
	if len(outs) != 0 {
		t.Errorf("stale retry produced %v", outs)
	}
}

func TestClientBackoffGrowsAndCaps(t *testing.T) {
	cli := &Client{
		Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1", "r2"},
		Retry: time.Second,
	}
	delayOf := func(outs []msg.Directive) time.Duration {
		for _, o := range outs {
			if o.M.Hdr == HdrClientRetry {
				return o.Delay
			}
		}
		t.Fatal("no retry timer armed")
		return 0
	}
	// First send: exactly the base timeout, no jitter.
	if d := delayOf(cli.Submit("x", nil)); d != time.Second {
		t.Fatalf("first timer %v, want exactly %v", d, time.Second)
	}
	// Each retry roughly doubles (±25% jitter), then saturates at the cap.
	var prev time.Duration
	for i := 1; i <= 6; i++ {
		_, outs := cli.Handle(msg.M(HdrClientRetry, ClientRetryBody{Seq: 1}))
		d := delayOf(outs)
		want := time.Second << i
		if want > retryCapFactor*time.Second {
			want = retryCapFactor * time.Second
		}
		lo := want - want/4
		hi := want + want/4
		if d < lo || d > hi {
			t.Fatalf("retry %d delay %v outside [%v,%v]", i, d, lo, hi)
		}
		prev = d
	}
	_ = prev
	// Completion resets the backoff for the next transaction.
	cli.Handle(msg.M(HdrTxResult, TxResult{Client: "c", Seq: 1}))
	if d := delayOf(cli.Submit("y", nil)); d != time.Second {
		t.Fatalf("post-completion timer %v, want base %v", d, time.Second)
	}
}

func TestClientBackoffDeterministic(t *testing.T) {
	run := func() []time.Duration {
		cli := &Client{
			Slf: "c", Mode: ModePBR, Replicas: []msg.Loc{"r1"},
			Retry: time.Second, JitterSeed: 42,
		}
		cli.Submit("x", nil)
		var out []time.Duration
		for i := 0; i < 5; i++ {
			_, outs := cli.Handle(msg.M(HdrClientRetry, ClientRetryBody{Seq: 1}))
			for _, o := range outs {
				if o.M.Hdr == HdrClientRetry {
					out = append(out, o.Delay)
				}
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 5 {
		t.Fatalf("collected %d delays", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d jitter differs across identical clients: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClientSMRSubmitAndRetryRotatesNodes(t *testing.T) {
	cli := &Client{Slf: "c", Mode: ModeSMR, BcastNodes: []msg.Loc{"b1", "b2", "b3"}, Retry: time.Second}
	outs := cli.Submit("x", []any{int64(1)})
	sent := 0
	for _, o := range outs {
		if o.M.Hdr == broadcast.HdrBcast {
			sent++
			if o.Dest != "b1" {
				t.Errorf("first submit went to %s, want b1", o.Dest)
			}
		}
	}
	if sent != 1 {
		t.Fatalf("SMR submit sent %d broadcast copies, want exactly 1", sent)
	}
	_, outs = cli.Handle(msg.M(HdrClientRetry, ClientRetryBody{Seq: 1}))
	for _, o := range outs {
		if o.M.Hdr == broadcast.HdrBcast && o.Dest != "b2" {
			t.Errorf("retry went to %s, want b2", o.Dest)
		}
	}
}
