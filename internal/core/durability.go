package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"shadowdb/internal/member"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
	"shadowdb/internal/store"
)

// The replicated executor (DESIGN.md §9): what a replica does besides
// ordering, written once. PBR and SMR refine it — the primary orders one
// transaction at a time, the broadcast service one slot at a time — and
// contribute only a journal record they append themselves (the wire
// body of the unit: a Repl, a broadcast.Deliver), the function applying
// a record, and their ordering frontier. Here: the journal's compaction
// (store.Journal's rule), recovery from snapshot plus journal tail, the
// reorder buffer for units ahead of the frontier, catch-up from the
// journal tail, and both directions of state transfer.

// snapHeader is the header of a durable snapshot and of a state
// transfer (the database image follows it, see appendSnapshot): the
// ordering frontier the image reflects, the dedup horizon and recent
// results, and the membership epoch schedule in force there. The
// schedule must be here: a membership command compacted into the
// snapshot is never replayed, so without it a restarted replica would
// recover the rows of epoch N while believing itself in epoch 0 — and,
// with leases on, grant renewals from a deposed holder that every live
// replica refuses.
type snapHeader struct {
	// Slot is the ordering frontier: the last slot (SMR) or the last
	// order number (PBR, where it equals Executed).
	Slot int
	// Executed and LastSeq are the dedup horizon: without them a
	// receiver would re-execute a client retry that the sender
	// deduplicates, silently diverging from it.
	Executed int64
	LastSeq  map[string]int64
	// Recent is the newest cached result per client, so a receiver that
	// later becomes the lease holder can re-emit acks for writes it never
	// executed locally (see SMRReplica.reAck).
	Recent []TxResult
	Epochs []member.Config
	Joined map[msg.Loc]int
	// Ext is an SMR extension's state (SMRExtension.Snapshot), opaque
	// here: a shard replica's 2PC ledger.
	Ext []byte
}

// DefaultSnapEvery is the default floor of the compaction rule
// (store.Journal): the fewest journaled units between two compactions.
const DefaultSnapEvery = store.DefaultFloor

// must stops an executor whose store failed: one that cannot persist
// an ordered unit write-ahead of its reply must not answer.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: executor journal: %v", err))
	}
}

// compactIfDue folds the journal into a snapshot when it has outgrown
// the last one, and reports whether it did.
func (e *Executor) compactIfDue() bool {
	did, err := e.st.CompactIfDue(e.snapshot)
	must(err)
	return did
}

// header describes the executor's current state for a snapshot or a
// state transfer.
func (e *Executor) header() snapHeader {
	h := snapHeader{Slot: int(e.Executed), Executed: e.Executed, LastSeq: e.LastSeqs(), Recent: e.RecentResults()}
	if e.frontier != nil {
		e.frontier(&h)
	}
	return h
}

// adoptHeader is header's inverse: the rows a header came with are in
// place, and the protocol and the executor take over the rest — the
// protocol first, so a share it refuses leaves the executor untouched.
func (e *Executor) adoptHeader(h snapHeader) error {
	if e.adopt != nil {
		if err := e.adopt(h); err != nil {
			return err
		}
	}
	e.InstallSnapshot(h.Executed, h.LastSeq, h.Recent)
	return nil
}

// snapshot encodes the executor's whole state, noting the frontier it
// covers: the journal's snapshot function. It encodes into snapBuf,
// which the next compaction overwrites: the store keeps no snapshot it
// was handed (store.Stable.SaveSnapshot).
func (e *Executor) snapshot() []byte {
	h := e.header()
	e.snapAt = h.Slot
	e.snapBuf = appendSnapshot(e.snapBuf[:0], h, e.DB)
	return e.snapBuf
}

// Compact saves a database snapshot to the stable store, truncating the
// journal behind it. Deployments call it once after installing the
// initial schema and population — rows that never travel through the
// journal are only recoverable from a snapshot.
func (e *Executor) Compact() error {
	return e.st.Compact(e.snapshot())
}

// journal gives the executor its journal, called name, over st — or,
// when the replica was built without a store, over a private one
// (store.NewPrivate) that dies with it and keeps no snapshot. Every
// replica journals, so every replica serves a lagging peer from its
// journal tail where that reaches back.
func (e *Executor) journal(name string, st store.Stable, floor int) {
	if st == nil {
		st = store.NewPrivate()
	}
	e.st = store.NewJournal(name, st, floor)
}

// encodeRecord encodes an ordered unit's wire body as its journal
// record, into a buffer the executor reuses: the store keeps no
// reference to it (store.Stable.Append). A body boxed already — the one
// a message carried — encodes without allocating.
func (e *Executor) encodeRecord(body any) []byte {
	var err error
	e.recBuf, err = msg.AppendBody(e.recBuf[:0], body)
	must(err)
	return e.recBuf
}

// Recover rebuilds the executor from its stable store (store.Journal's
// loop): the snapshot restores the database and the header's share of
// the state, then replay — the protocol's record codec — applies each
// journaled unit that is the next in order. Recover reports whether any
// durable state was found. The network delta is the caller's: the
// protocol's usual catch-up fetches what was ordered during the downtime,
// as records of the same codec.
func (e *Executor) Recover(replay func(rec []byte) error) (bool, error) {
	return e.st.Recover(func(snap []byte) error {
		h, img, err := splitSnapshot(snap)
		if err != nil {
			return err
		}
		return e.restore(h, img)
	}, replay)
}

// NewDurablePBRReplica creates a PBR replica that journals every
// transaction it applies to st — write-ahead: right after the executor
// applied it, before the reply or ack that follows (PBRReplica.applied)
// — compacted by store.Journal's rule with snapEvery as its floor
// (<= 0 selects DefaultSnapEvery), recovering any durable state first.
// It reports whether the replica came back from an existing store (true
// = a restart, not a fresh spare). The database must already hold the
// initial schema and population when the store is fresh: the baseline
// snapshot written here is the only place those rows are persisted.
func NewDurablePBRReplica(slf msg.Loc, db *sqldb.DB, reg Registry, dep PBRDeployment, st store.Stable, snapEvery int) (*PBRReplica, bool, error) {
	r := NewPBRReplica(slf, db, reg, dep)
	r.exec.journal("pbr-"+string(slf), st, snapEvery)
	restored, err := r.exec.Recover(r.replayTx)
	if err != nil {
		return nil, false, err
	}
	if !restored {
		if err := r.exec.Compact(); err != nil {
			return nil, false, err
		}
	}
	return r, restored, nil
}

// reorder parks ordered units that arrived ahead of the contiguous
// frontier, keyed by index (PBR: order number, SMR: slot), until the
// gap before them closes.
type reorder[T any] map[int64]T

// next removes and returns the unit right after frontier, if parked.
func (b reorder[T]) next(frontier int64) (T, bool) {
	u, ok := b[frontier+1]
	delete(b, frontier+1)
	return u, ok
}

// settle forgets every unit at or below frontier: a transfer or a
// repair covered them.
func (b reorder[T]) settle(frontier int64) {
	for i := range b {
		if i <= frontier {
			delete(b, i)
		}
	}
}

// take empties the buffer and returns its units in index order.
func (b reorder[T]) take() []T {
	idx := make([]int64, 0, len(b))
	for i := range b {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	out := make([]T, len(idx))
	for n, i := range idx {
		out[n] = b[i]
		delete(b, i)
	}
	return out
}

// gapPacer paces the catch-up requests of units parked past a gap: ask
// counts one and says to ask at the first and then every eighth, so a
// burst costs one round trip while a lost request or answer is still
// re-asked. A parked unit applied re-arms it (zero).
type gapPacer int

func (p *gapPacer) ask() bool {
	*p++
	return *p == 1 || *p%8 == 0
}

// catchupChunk bounds the journal bytes one Catchup carries: the journal
// grows with the database (store.Journal's rule), so a delta can be
// many megabytes.
const catchupChunk = 1 << 20

// serveCatchup answers a peer's CatchupReq from the journal: the
// records whose unit index (read by unit) is above after, in Catchups
// of at most catchupChunk bytes — at least one. The records are copies:
// the store may reuse a replayed record's bytes, and a Catchup outlives
// the replay. It reports false when the journal cannot serve the range
// (compacted past after, or it does not replay): a state transfer is
// needed instead.
func (e *Executor) serveCatchup(to msg.Loc, cfgSeq int, after int64, unit func(rec []byte) (int64, bool)) ([]msg.Directive, bool) {
	if after < int64(e.snapAt) {
		return nil, false
	}
	var outs []msg.Directive
	var recs [][]byte
	size := 0
	flush := func() {
		outs = append(outs, msg.Send(to, msg.M(HdrCatchup, Catchup{CfgSeq: cfgSeq, Records: recs})))
		recs, size = nil, 0
	}
	err := e.st.Replay(func(rec []byte) error {
		if i, ok := unit(rec); ok && i > after {
			if size > 0 && size+len(rec) > catchupChunk {
				flush()
			}
			recs = append(recs, bytes.Clone(rec))
			size += len(rec)
		}
		return nil
	})
	if err != nil {
		return nil, false
	}
	flush()
	return outs, true
}

// SnapshotDirectives sends the executor's state to a destination as
// the snapshot a compaction would write, in SnapParts: the header part,
// then the image in parts of at most catchupChunk. It returns the
// modeled sender-side serialization cost — rows times columns, as the
// paper observes for TPC-C ("serialization overhead is proportional to
// the number of table columns"). xfer identifies the transfer at the
// receiver (see SnapPart). It leaves snapAt alone: what the journal can
// serve does not change.
func (e *Executor) SnapshotDirectives(to msg.Loc, cfgSeq int, xfer int64) ([]msg.Directive, time.Duration) {
	// A buffer of its own, not snapBuf: the parts outlive this call.
	snap := appendSnapshot(nil, e.header(), e.DB)
	end, _ := snapHeaderEnd(snap)
	parts := [][]byte{snap[:end]}
	for img := snap[end:]; len(img) > 0; {
		n := min(len(img), catchupChunk)
		parts, img = append(parts, img[:n]), img[n:]
	}
	outs := make([]msg.Directive, len(parts))
	for i, p := range parts {
		outs[i] = msg.Send(to, msg.M(HdrSnapPart, SnapPart{CfgSeq: cfgSeq, Xfer: xfer, N: i, Of: len(parts), Bytes: p}))
	}
	return outs, e.DB.SerializeCost()
}

// snapAssembly collects the parts of one incoming state transfer. The
// network may drop, duplicate and reorder them, and a sender may start
// a replacement while stragglers of the lost one are still in flight.
type snapAssembly struct {
	xfer int64
	of   int
	// parts holds the parts taken, by index, so a duplicate cannot let
	// the assembly complete with another part still missing. It is nil
	// once the transfer is assembled.
	parts map[int][]byte
}

// receiving reports whether a state transfer is being assembled.
func (e *Executor) receiving() bool {
	return e.xfer != nil && e.xfer.parts != nil
}

// snapPart adds one part to the assembly and reports whether it took
// it, with the assembled snapshot once the last part arrived. A part
// numbered above the transfer being assembled supersedes it; one below
// it, of an assembled transfer, of another shape or out of range is
// dropped. The assembly allocates only for parts that arrive, never by
// a peer's Of.
func (e *Executor) snapPart(p SnapPart) (bool, []byte) {
	a := e.xfer
	switch {
	case p.N < 0 || p.N >= p.Of:
		return false, nil
	case a == nil || p.Xfer > a.xfer:
		a = &snapAssembly{xfer: p.Xfer, of: p.Of, parts: make(map[int][]byte)}
		e.xfer = a
	case p.Xfer < a.xfer || a.parts == nil || p.Of != a.of:
		return false, nil
	}
	a.parts[p.N] = p.Bytes
	if len(a.parts) < a.of {
		return true, nil
	}
	ordered := make([][]byte, a.of) // a.of parts arrived
	for i, b := range a.parts {
		ordered[i] = b
	}
	a.parts = nil
	return true, bytes.Join(ordered, nil)
}

// restore installs a snapshot's image and adopts its header: recovery
// does it with the store's snapshot, install with a transfer's. An
// image that does not decode, or whose schema the engine refuses,
// leaves the database as it was.
func (e *Executor) restore(h snapHeader, img []byte) error {
	dumps, err := sqldb.DecodeDump(img)
	if err != nil {
		return err
	}
	if err := e.DB.Restore(dumps); err != nil {
		return err
	}
	e.snapAt = h.Slot
	return e.adoptHeader(h)
}

// install replaces the executor's whole state with an assembled
// transfer, restored as Recover restores a snapshot, and makes the
// result the store's new baseline: the journal describes a history the
// transfer superseded, and a restart must recover this state, not
// resurrect that one. It returns the modeled receive-side insertion
// cost: row insertion is the state-transfer bottleneck (Fig. 10b).
func (e *Executor) install(h snapHeader, img []byte) (time.Duration, error) {
	if err := e.restore(h, img); err != nil {
		return 0, err
	}
	must(e.Compact())
	return e.DB.RestoreCost(), nil
}

// A durable snapshot — and a state transfer, which sends the same
// bytes — is a small snapHeader, written with the wire codec's Writer,
// followed by the database image, written straight off the tables'
// indexes by sqldb.AppendDump:
//
//	"SNP4" | 4-byte big-endian header length | header | image
//
// The magic tells this layout from the ones it replaced, whose files
// are refused rather than misread: SNP3, the same layout from a build
// whose ordered payloads carried text marks (tx|, mbr|, …) that this
// one would skip in its journal's Deliver records; SNP2 with a gob
// header; and the all-gob layout before it. Every durable replica saves
// a baseline snapshot, so refusing the magic refuses the data dir.
const snapMagic = "SNP4"

// appendSnapshot appends the snapshot of hdr and db to dst and returns
// the extended buffer.
func appendSnapshot(dst []byte, hdr snapHeader, db *sqldb.DB) []byte {
	start := len(dst)
	buf := append(append(dst, snapMagic...), 0, 0, 0, 0)
	buf, err := msg.Append(buf, func(w *msg.Writer) { appendSnapHeader(w, hdr) })
	must(err) // a result row the codec refuses never reaches the dedup table
	binary.BigEndian.PutUint32(buf[start+len(snapMagic):], uint32(len(buf)-start-len(snapMagic)-4))
	return db.AppendDump(buf)
}

// appendSnapHeader writes a header's fields in declaration order: the
// maps as their entries in key order, each recent result as the TxResult
// body that answered it.
func appendSnapHeader(w *msg.Writer, h snapHeader) {
	w.Int(h.Slot)
	w.Int64(h.Executed)
	w.Uvarint(uint64(len(h.LastSeq)))
	for _, c := range msg.SortedKeys(h.LastSeq) {
		w.Text(c)
		w.Int64(h.LastSeq[c])
	}
	w.Uvarint(uint64(len(h.Recent)))
	for _, res := range h.Recent {
		w.Body(res)
	}
	w.Uvarint(uint64(len(h.Epochs)))
	for _, c := range h.Epochs {
		w.Int(c.Epoch)
		w.Int(c.ActivateAt)
		w.Int(c.ReplicasFrom)
		w.Locs(c.Bcast)
		w.Locs(c.Replicas)
	}
	w.Uvarint(uint64(len(h.Joined)))
	for _, l := range msg.SortedKeys(h.Joined) {
		w.Loc(l)
		w.Int(h.Joined[l])
	}
	w.Bytes(h.Ext)
}

var errNotResult = errors.New("a recent result that is not a TxResult")

func readSnapHeader(r *msg.Reader) snapHeader {
	h := snapHeader{Slot: r.Int(), Executed: r.Int64()}
	if n := r.Count(2); n > 0 { // a client name and a sequence number
		h.LastSeq = make(map[string]int64, n)
		for range n {
			c := r.Text()
			h.LastSeq[c] = r.Int64()
		}
	}
	if n := r.Count(1); n > 0 {
		h.Recent = make([]TxResult, n)
		for i := range h.Recent {
			res, ok := r.Body().(TxResult)
			if !ok {
				r.Fail(errNotResult)
			}
			h.Recent[i] = res
		}
	}
	if n := r.Count(5); n > 0 { // three integers and two lists
		h.Epochs = make([]member.Config, n)
		for i := range h.Epochs {
			h.Epochs[i] = member.Config{Epoch: r.Int(), ActivateAt: r.Int(), ReplicasFrom: r.Int(), Bcast: r.Locs(), Replicas: r.Locs()}
		}
	}
	if n := r.Count(2); n > 0 { // a location and a slot
		h.Joined = make(map[msg.Loc]int, n)
		for range n {
			l := r.Loc()
			h.Joined[l] = r.Int()
		}
	}
	h.Ext = r.Bytes()
	return h
}

// snapHeaderEnd returns where a snapshot's header ends and its image
// begins.
func snapHeaderEnd(b []byte) (int, error) {
	n := len(snapMagic)
	if len(b) < n+4 || string(b[:n]) != snapMagic {
		return 0, errors.New("not a snapshot in the current format")
	}
	hlen := binary.BigEndian.Uint32(b[n:])
	if uint64(hlen) > uint64(len(b)-n-4) {
		return 0, errors.New("truncated snapshot header")
	}
	return n + 4 + int(hlen), nil
}

// splitSnapshot decodes a snapshot's header and returns it with the
// database image behind it. Recovery reads the store's snapshot through
// it, a receiver an assembled transfer, and the checker a transfer's
// header part alone.
func splitSnapshot(b []byte) (snapHeader, []byte, error) {
	var h snapHeader
	end, err := snapHeaderEnd(b)
	if err != nil {
		return h, nil, err
	}
	if err := msg.Read(b[len(snapMagic)+4:end], func(r *msg.Reader) { h = readSnapHeader(r) }); err != nil {
		return snapHeader{}, nil, fmt.Errorf("snapshot header: %w", err)
	}
	return h, b[end:], nil
}
