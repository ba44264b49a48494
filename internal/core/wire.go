package core

import (
	"time"

	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// ShadowDB's bodies are registered with the wire codec at init (tags
// 0x10–0x1f and 0x80–0x8f, DESIGN.md "Wire format and allocation hot
// path"). The timers without fields (HdrHBTick, HdrLeaseTick,
// HdrSyncTick) send nil bodies.
func init() {
	msg.RegisterCodec(txTag, TxRequest{}, AppendTxRequest, ReadTxRequest)
	msg.RegisterCodec(0x11, TxResult{}, appendTxResult, readTxResult)
	msg.RegisterCodec(0x12, ReadRequest{}, appendReadRequest, readReadRequest)
	msg.RegisterCodec(0x13, &ReadResult{}, appendReadResult, readReadResult)
	msg.RegisterCodec(0x14, Repl{}, appendRepl, readRepl)
	msg.RegisterCodec(0x15, ReplAck{}, appendReplAck, readReplAck)
	msg.RegisterCodec(0x16, Heartbeat{}, appendHeartbeat, readHeartbeat)
	msg.RegisterCodec(0x17, CatchupReq{}, appendCatchupReq, readCatchupReq)
	msg.RegisterCodec(0x18, Catchup{}, appendCatchup, readCatchup)
	msg.RegisterCodec(0x19, SnapPart{}, appendSnapPart, readSnapPart)
	msg.RegisterCodec(0x1a, Redirect{}, appendRedirect, readRedirect)
	msg.RegisterCodec(0x1b, Elect{}, appendElect, readElect)
	msg.RegisterCodec(0x1c, Recovered{}, appendRecovered, readRecovered)
	msg.RegisterCodec(0x1d, ClientRetryBody{}, appendClientRetry, readClientRetry)
	msg.RegisterCodec(0x1e, SubmitBody{}, appendSubmit, readSubmit)
	msg.RegisterCodec(leaseTag, LeaseRenewal{}, appendLease, readLease)
	msg.RegisterCodec(configTag, NewConfig{}, appendNewConfig, readNewConfig)
}

// The tags of the payloads this package orders, which tell them apart.
const (
	txTag     = 0x10
	leaseTag  = 0x1f
	configTag = 0x80
)

// memberTag is the tag of a membership command, which the SMR slot loop
// applies.
var memberTag = msg.TagOf[member.Command]()

// RegisterWireTypes does nothing: the codecs are registered at init. It
// stays for the benchmark module's callers (ROADMAP item 1(b)).
func RegisterWireTypes() {}

// AppendTxRequest is the TxRequest codec's encoder; bodies that carry a
// request (Repl, shard.Prepare) write it with their own fields.
func AppendTxRequest(w *msg.Writer, r TxRequest) {
	w.Loc(r.Client)
	w.Int64(r.Seq)
	w.Text(r.Type)
	w.Values(r.Args)
	w.Int64(r.Deadline)
}

// ReadTxRequest is the TxRequest codec's decoder.
func ReadTxRequest(r *msg.Reader) TxRequest {
	return TxRequest{Client: r.Loc(), Seq: r.Int64(), Type: r.Text(), Args: r.Values(), Deadline: r.Int64()}
}

func appendTxResult(w *msg.Writer, t TxResult) {
	w.Loc(t.Client)
	w.Int64(t.Seq)
	w.Bool(t.Aborted)
	w.Text(t.Err)
	w.Texts(t.Cols)
	w.Uvarint(uint64(len(t.Rows)))
	for _, row := range t.Rows {
		w.Values(row)
	}
}

func readTxResult(r *msg.Reader) TxResult {
	t := TxResult{Client: r.Loc(), Seq: r.Int64(), Aborted: r.Bool(), Err: r.Text(), Cols: r.Texts()}
	if n := r.Count(1); n > 0 {
		t.Rows = make([][]sqldb.Value, n)
		for i := range t.Rows {
			t.Rows[i] = r.Values()
		}
	}
	return t
}

func appendReadRequest(w *msg.Writer, q ReadRequest) {
	w.Loc(q.Client)
	w.Int64(q.Seq)
	w.Text(q.Type)
	w.Values(q.Args)
	w.Int(int(q.Mode))
}

func readReadRequest(r *msg.Reader) ReadRequest {
	return ReadRequest{Client: r.Loc(), Seq: r.Int64(), Type: r.Text(), Args: r.Values(), Mode: ReadMode(r.Int())}
}

func appendReadResult(w *msg.Writer, res *ReadResult) {
	w.Loc(res.Client)
	w.Int64(res.Seq)
	w.Int(int(res.Mode))
	w.Int(res.Slot)
	w.Int64(res.Issue)
	w.Bool(res.Rejected)
	w.Text(res.Err)
	w.Texts(res.Cols)
	w.Values(res.Vals)
}

func readReadResult(r *msg.Reader) *ReadResult {
	return &ReadResult{Client: r.Loc(), Seq: r.Int64(), Mode: ReadMode(r.Int()), Slot: r.Int(), Issue: r.Int64(),
		Rejected: r.Bool(), Err: r.Text(), Cols: r.Texts(), Vals: r.Values()}
}

func appendRepl(w *msg.Writer, p Repl) {
	w.Int(p.CfgSeq)
	w.Int64(p.Order)
	AppendTxRequest(w, p.Req)
}

func readRepl(r *msg.Reader) Repl {
	return Repl{CfgSeq: r.Int(), Order: r.Int64(), Req: ReadTxRequest(r)}
}

func appendReplAck(w *msg.Writer, a ReplAck) {
	w.Int(a.CfgSeq)
	w.Int64(a.Order)
	w.Loc(a.From)
}

func readReplAck(r *msg.Reader) ReplAck {
	return ReplAck{CfgSeq: r.Int(), Order: r.Int64(), From: r.Loc()}
}

func appendHeartbeat(w *msg.Writer, hb Heartbeat) {
	w.Loc(hb.From)
	w.Int(hb.CfgSeq)
	w.Locs(hb.Members)
	w.Bool(hb.Stopped)
	w.Bool(hb.Elected)
}

func readHeartbeat(r *msg.Reader) Heartbeat {
	return Heartbeat{From: r.Loc(), CfgSeq: r.Int(), Members: r.Locs(), Stopped: r.Bool(), Elected: r.Bool()}
}

func appendCatchupReq(w *msg.Writer, q CatchupReq) {
	w.Int(q.CfgSeq)
	w.Loc(q.From)
	w.Int64(q.After)
	w.Bool(q.Resync)
}

func readCatchupReq(r *msg.Reader) CatchupReq {
	return CatchupReq{CfgSeq: r.Int(), From: r.Loc(), After: r.Int64(), Resync: r.Bool()}
}

func appendCatchup(w *msg.Writer, c Catchup) {
	w.Int(c.CfgSeq)
	w.Uvarint(uint64(len(c.Records)))
	for _, rec := range c.Records {
		w.Bytes(rec)
	}
}

func readCatchup(r *msg.Reader) Catchup {
	c := Catchup{CfgSeq: r.Int()}
	if n := r.Count(1); n > 0 {
		c.Records = make([][]byte, n)
		for i := range c.Records {
			c.Records[i] = r.Bytes()
		}
	}
	return c
}

func appendSnapPart(w *msg.Writer, p SnapPart) {
	w.Int(p.CfgSeq)
	w.Int64(p.Xfer)
	w.Int(p.N)
	w.Int(p.Of)
	w.Bytes(p.Bytes)
}

func readSnapPart(r *msg.Reader) SnapPart {
	return SnapPart{CfgSeq: r.Int(), Xfer: r.Int64(), N: r.Int(), Of: r.Int(), Bytes: r.Bytes()}
}

func appendRedirect(w *msg.Writer, d Redirect) {
	w.Loc(d.Primary)
	w.Int(d.CfgSeq)
}

func readRedirect(r *msg.Reader) Redirect { return Redirect{Primary: r.Loc(), CfgSeq: r.Int()} }

func appendElect(w *msg.Writer, e Elect) {
	w.Int(e.CfgSeq)
	w.Loc(e.From)
	w.Int64(e.Executed)
	w.Bool(e.HasData)
}

func readElect(r *msg.Reader) Elect {
	return Elect{CfgSeq: r.Int(), From: r.Loc(), Executed: r.Int64(), HasData: r.Bool()}
}

func appendRecovered(w *msg.Writer, v Recovered) {
	w.Int(v.CfgSeq)
	w.Loc(v.From)
}

func readRecovered(r *msg.Reader) Recovered { return Recovered{CfgSeq: r.Int(), From: r.Loc()} }

func appendClientRetry(w *msg.Writer, b ClientRetryBody) { w.Int64(b.Seq) }

func readClientRetry(r *msg.Reader) ClientRetryBody { return ClientRetryBody{Seq: r.Int64()} }

func appendSubmit(w *msg.Writer, b SubmitBody) {
	w.Text(b.Type)
	w.Values(b.Args)
}

func readSubmit(r *msg.Reader) SubmitBody { return SubmitBody{Type: r.Text(), Args: r.Values()} }

func appendLease(w *msg.Writer, l LeaseRenewal) {
	w.Int(l.Epoch)
	w.Loc(l.Holder)
	w.Int64(int64(l.Issue))
	w.Int64(l.Seq)
}

func readLease(r *msg.Reader) LeaseRenewal {
	return LeaseRenewal{Epoch: r.Int(), Holder: r.Loc(), Issue: time.Duration(r.Int64()), Seq: r.Int64()}
}

func appendNewConfig(w *msg.Writer, c NewConfig) {
	w.Int(c.OldSeq)
	w.Locs(c.Members)
	w.Loc(c.Proposer)
}

func readNewConfig(r *msg.Reader) NewConfig {
	return NewConfig{OldSeq: r.Int(), Members: r.Locs(), Proposer: r.Loc()}
}
