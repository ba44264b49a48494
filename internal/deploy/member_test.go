package deploy_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shadowdb/internal/broadcast"
	"shadowdb/internal/deploy"
	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/runtime"
)

// POST /member/propose submits only a command that names an id of the
// kind its op changes. A node "r|4" is no replica id: the text payload
// format once split it at the '|' and added replica "r"; the codec keeps
// it whole, so the route itself must refuse it.
func TestProposeRefusesWrongKindOfId(t *testing.T) {
	hub := network.NewHub()
	defer hub.Close()
	tr, err := hub.Register("r1")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := hub.Register("b1")
	if err != nil {
		t.Fatal(err)
	}
	host := runtime.NewHost("r1", tr, nil)
	view := member.NewView(member.Config{Bcast: []msg.Loc{"b1"}, Replicas: []msg.Loc{"r1"}}, 8)
	srv := httptest.NewServer(deploy.ProposeHandler(host, view))
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"op":"add-replica","node":"r|4","addr":"h:1"}`,
		`{"op":"add-replica","node":"b4","addr":"h:1"}`,
		`{"op":"remove-acceptor","node":"r2"}`,
		`{"op":"add-replica","node":""}`,
		`{"op":"bogus","node":"r4"}`,
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
	}
	if code := post(`{"op":"add-replica","node":"r4","addr":"h:1"}`); code != http.StatusAccepted {
		t.Fatalf("a well-formed join: status %d, want 202", code)
	}
	select {
	case env := <-seq.Receive():
		cmd, ok := member.DecodeCommand(env.M.Body.(broadcast.Bcast).Payload)
		if want := (member.Command{Op: member.AddReplica, Node: "r4", Addr: "h:1"}); !ok || cmd != want {
			t.Errorf("the sequencer got %+v (ok=%v), want %+v", cmd, ok, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the sequencer got no proposal")
	}
	select {
	case env := <-seq.Receive():
		t.Errorf("the sequencer got a second proposal: %+v", env.M.Body)
	default:
	}
}
