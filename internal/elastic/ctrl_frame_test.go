package elastic

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"inceptionn/internal/frame"
)

// ctrlHeaderLen is the fixed part of a control frame before its payload:
// magic, kind, status, two reserved bytes, request id, payload length.
const ctrlHeaderLen = 16

type awaitReq struct {
	after, windowMs uint32
	beat            bool
}

type gatherReq struct {
	epoch uint32
	key   string
	it    Item
}

type nodeMsg struct {
	node uint32
	msg  string
}

type event struct {
	changed, fatal bool
	v              View
}

func decodeU32(r *frame.Reader) any      { return r.U32() }
func decodeI64(r *frame.Reader) any      { return int64(r.U64()) }
func decodeView(r *frame.Reader) any     { return view(r) }
func decodeNodeMsg(r *frame.Reader) any  { return nodeMsg{r.U32(), r.Str()} }
func decodeAwaitReq(r *frame.Reader) any { return awaitReq{r.U32(), r.U32(), r.U8() != 0} }
func decodeGatherReq(r *frame.Reader) any {
	return gatherReq{r.U32(), r.Str(), item(r)}
}
func decodeEvent(r *frame.Reader) any {
	changed, fatal, v := awaitEvent(r)
	return event{changed, fatal, v}
}

type goldenFrame struct {
	name         string
	kind, status byte
	reqID        uint32
	payload      []byte
	decode       func(*frame.Reader) any // nil for an empty payload
	want         any
}

// ctrlGolden is one INCC frame per request kind and per reply shape, built
// from fixed inputs by this tree's writers. The same inputs, through the
// writers of the commit before internal/frame existed, produced
// testdata/golden_incc.hex — which must never be regenerated from current
// code: it is what pins the bytes on the wire.
var ctrlGolden = func() []goldenFrame {
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = frame.AppendU32(b, v)
		}
		return b
	}
	node := func(n uint32, msg string) []byte { return frame.AppendStr(frame.AppendU32(nil, n), msg) }
	sent := Item{Iter: 7, Cursor: 123456789, Residual: []float32{0.5, -0.25, 1e-3}}
	items := map[int]interface{}{
		0: Item{Iter: 7, Cursor: 11},
		1: Item{Iter: 8, Joining: true, Residual: []float32{}},
		3: Item{Iter: 7, Cursor: 99, Residual: []float32{1.5, -2.25}},
	}
	gatherRep := frame.AppendU32(nil, 3)
	for _, m := range []int{0, 1, 3} {
		gatherRep = appendItem(frame.AppendU32(gatherRep, uint32(m)), items[m].(Item))
	}
	return []goldenFrame{
		{"hello_req", ckHello, stOK, 1, u32s(2), decodeU32, uint32(2)},
		{"beat_req", ckBeat, stOK, 2, nil, nil, nil},
		{"view_req", ckView, stOK, 3, nil, nil, nil},
		{"await_req", ckAwaitEvent, stOK, 4, append(u32s(5, 1000), 0), decodeAwaitReq, awaitReq{5, 1000, false}},
		{"await_beat_req", ckAwaitEvent, stOK, 4, append(u32s(5, 500), 1), decodeAwaitReq, awaitReq{5, 500, true}},
		{"gather_req", ckGather, stOK, 5, appendItem(frame.AppendStr(u32s(3), "recover@7"), sent),
			decodeGatherReq, gatherReq{3, "recover@7", sent}},
		{"report_dead_req", ckReportDead, stOK, 6, node(1, "node crashed"), decodeNodeMsg, nodeMsg{1, "node crashed"}},
		{"report_anomaly_req", ckReportAnomaly, stOK, 7, node(3, "torn frame"), decodeNodeMsg, nodeMsg{3, "torn frame"}},
		{"depart_req", ckDepart, stOK, 8, nil, nil, nil},
		{"propose_halt_req", ckProposeHalt, stOK, 9, frame.AppendU64(nil, 41), decodeI64, int64(41)},
		{"halt_iter_req", ckHaltIter, stOK, 10, nil, nil, nil},
		{"join_req", ckJoin, stOK, 11, nil, nil, nil},
		{"hello_rep", ckHello, stOK, 1, u32s(4), decodeU32, uint32(4)},
		{"empty_rep", ckBeat, stOK, 2, nil, nil, nil},
		{"view_rep", ckView, stOK, 3, appendView(nil, View{Epoch: 2, Members: []int{0, 1, 3}}), decodeView, View{Epoch: 2, Members: []int{0, 1, 3}}},
		{"await_changed_rep", ckAwaitEvent, stOK, 4, appendView([]byte{1, 1}, View{Epoch: 3, Members: []int{0, 3}}),
			decodeEvent, event{true, true, View{Epoch: 3, Members: []int{0, 3}}}},
		{"await_idle_rep", ckAwaitEvent, stOK, 4, appendView([]byte{0, 0}, View{Epoch: 2, Members: []int{0, 1, 3}}),
			decodeEvent, event{false, false, View{Epoch: 2, Members: []int{0, 1, 3}}}},
		{"gather_rep", ckGather, stOK, 5, gatherRep, func(r *frame.Reader) any { return gatherReply(r) }, items},
		{"progress_rep", ckProgress, stOK, 5, nil, nil, nil},
		{"propose_halt_rep", ckProposeHalt, stOK, 9, frame.AppendU64(nil, 42), decodeI64, int64(42)},
		{"halt_iter_rep", ckHaltIter, stOK, 10, frame.AppendU64(nil, ^uint64(0)), decodeI64, int64(-1)},
		{"epoch_changed_rep", ckGather, stEpochChanged, 5, nil, nil, nil},
		{"evicted_rep", ckGather, stEvicted, 5, nil, nil, nil},
		{"closed_rep", ckAwaitEvent, stClosed, 4, nil, nil, nil},
		{"error_rep", ckJoin, stError, 11, frame.AppendStr(nil, "elastic: node 9 outside universe"),
			func(r *frame.Reader) any { return r.Str() }, "elastic: node 9 outside universe"},
	}
}()

func encodeCtrlFrame(t testing.TB, kind, status byte, reqID uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCtrlFrame(bufio.NewWriter(&buf), kind, status, reqID, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCtrlGoldenBytes: the writers reproduce the parent commit's frames
// byte for byte and the readers parse those frames to the parent's values.
func TestCtrlGoldenBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_incc.hex")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(ctrlGolden) {
		t.Fatalf("golden file has %d frames, the table %d", len(lines), len(ctrlGolden))
	}
	for i, g := range ctrlGolden {
		name, hexBytes, _ := strings.Cut(lines[i], " ")
		golden, err := hex.DecodeString(hexBytes)
		if err != nil || name != g.name {
			t.Fatalf("golden line %d: name %q (want %q), %v", i, name, g.name, err)
		}
		if got := encodeCtrlFrame(t, g.kind, g.status, g.reqID, g.payload); !bytes.Equal(got, golden) {
			t.Errorf("%s: wrote % x\nwant  % x", g.name, got, golden)
		}
		kind, status, reqID, payload, err := readCtrlFrame(bufio.NewReader(bytes.NewReader(golden)))
		if err != nil || kind != g.kind || status != g.status || reqID != g.reqID || len(payload) != len(g.payload) {
			t.Fatalf("%s: read kind %d status %d req %d with %d payload bytes, %v", g.name, kind, status, reqID, len(payload), err)
		}
		if g.decode == nil {
			continue
		}
		r := over(payload)
		if got := g.decode(r); r.Err() != nil || !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s: decoded %+v (%v), want %+v", g.name, got, r.Err(), g.want)
		}
	}
	if err := statusErr(stError, ctrlGolden[len(ctrlGolden)-1].payload); err == nil || err.Error() != "elastic: node 9 outside universe" {
		t.Errorf("error reply decoded to %v", err)
	}
}

func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCtrlLengthsDoNotAllocate: a length off the wire is not an allocation.
// Before internal/frame the first input cost the coordinator 256 MiB on its
// listen port, before the hello had identified anyone, and the second 8 MiB.
func TestCtrlLengthsDoNotAllocate(t *testing.T) {
	header := encodeCtrlFrame(t, ckHello, stOK, 1, nil)[:ctrlHeaderLen]
	copy(header[12:], frame.AppendU32(nil, ctrlMaxPayload))
	var err error
	if grew := allocDuring(func() {
		_, _, _, _, err = readCtrlFrame(bufio.NewReader(bytes.NewReader(header)))
	}); err == nil || grew > 1<<20 {
		t.Errorf("16-byte header declaring %d payload bytes: err %v, %d bytes allocated", ctrlMaxPayload, err, grew)
	}

	members := frame.AppendU32(frame.AppendU32(nil, 3), 1<<20) // epoch 3, 2^20 members, none present
	r := over(members)
	if grew := allocDuring(func() { view(r) }); r.Err() == nil || grew > 1<<20 {
		t.Errorf("8-byte view declaring 2^20 members: err %v, %d bytes allocated", r.Err(), grew)
	}
	r = over(frame.AppendU32(nil, 1<<20))
	if grew := allocDuring(func() { gatherReply(r) }); r.Err() == nil || grew > 1<<20 {
		t.Errorf("4-byte gather reply declaring 2^20 items: err %v, %d bytes allocated", r.Err(), grew)
	}
}

// haltStub is a coordinator that speaks hello, view and await-event but
// answers everything else — the two halt kinds in particular — with an stOK
// reply that carries no body.
func haltStub(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	v := View{Members: []int{0, 1}}
	serve := func(conn net.Conn) {
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			kind, _, reqID, _, err := readCtrlFrame(br)
			if err != nil {
				return
			}
			var body []byte
			switch kind {
			case ckHello:
				body = frame.AppendU32(nil, 2)
			case ckView:
				body = appendView(nil, v)
			case ckAwaitEvent:
				time.Sleep(20 * time.Millisecond) // the watcher polls in a loop
				body = appendView([]byte{0, 0}, v)
			}
			if writeCtrlFrame(bw, kind, stOK, reqID, body) != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestHaltRepliesWithoutAnAnswer: a short reply is not "iteration 0". The
// client used to ignore the decoder's error on these two calls and return
// 0 and 0, which the elastic worker reads as "everyone halt now".
func TestHaltRepliesWithoutAnAnswer(t *testing.T) {
	cl, err := DialCtrl(haltStub(t), 0, CtrlOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if h := cl.HaltIter(); h != -1 {
		t.Errorf("HaltIter on an empty reply = %d, want -1 (no halt agreed)", h)
	}
	if h := cl.ProposeHalt(41); h != 42 {
		t.Errorf("ProposeHalt(41) on an empty reply = %d, want 42 (own proposal)", h)
	}
}

// ctrlCodecs is every payload decoder of the control channel with the
// writer that mirrors it. flags lists the offsets of an encoding's boolean
// bytes — a decoder reads any non-zero byte as true, a writer writes 1 — and
// is nil where the encoding is not unique at all: a gather reply lists
// members in the server's map order, so encode (sorted) only serves to
// compare two decodes.
var ctrlCodecs = []struct {
	name   string
	decode func(*frame.Reader) any
	encode func(any) []byte
	flags  func(any) []int
}{
	{"hello", decodeU32, func(v any) []byte { return frame.AppendU32(nil, v.(uint32)) }, noFlags},
	{"view", decodeView, func(v any) []byte { return appendView(nil, v.(View)) }, noFlags},
	{"item", func(r *frame.Reader) any { return item(r) }, func(v any) []byte { return appendItem(nil, v.(Item)) },
		func(any) []int { return []int{8} }},
	{"await-event", decodeEvent, func(v any) []byte {
		e := v.(event)
		return appendView([]byte{boolByte(e.changed), boolByte(e.fatal)}, e.v)
	}, func(any) []int { return []int{0, 1} }},
	{"await-request", decodeAwaitReq, func(v any) []byte {
		q := v.(awaitReq)
		return append(frame.AppendU32(frame.AppendU32(nil, q.after), q.windowMs), boolByte(q.beat))
	}, func(any) []int { return []int{8} }},
	{"gather-request", decodeGatherReq, func(v any) []byte {
		g := v.(gatherReq)
		return appendItem(frame.AppendStr(frame.AppendU32(nil, g.epoch), g.key), g.it)
	}, func(v any) []int { return []int{4 + 4 + len(v.(gatherReq).key) + 8} }},
	{"node-message", decodeNodeMsg, func(v any) []byte { return frame.AppendStr(frame.AppendU32(nil, v.(nodeMsg).node), v.(nodeMsg).msg) }, noFlags},
	{"gather-reply", func(r *frame.Reader) any { return gatherReply(r) }, func(v any) []byte {
		vals := v.(map[int]interface{})
		ids := make([]int, 0, len(vals))
		for m := range vals {
			ids = append(ids, m)
		}
		sort.Ints(ids)
		b := frame.AppendU32(nil, uint32(len(ids)))
		for _, m := range ids {
			b = appendItem(frame.AppendU32(b, uint32(m)), vals[m].(Item))
		}
		return b
	}, nil},
}

func noFlags(any) []int { return nil }

// checkCtrlFrame is the contract of everything that reads control bytes it
// did not write: no input panics; what a decoder allocates is bounded by
// the input, not by a length inside it; a sized and an unsized source agree;
// and whatever decodes re-encodes to the bytes it was read from.
func checkCtrlFrame(t *testing.T, in []byte) {
	var kind, status byte
	var reqID uint32
	var payload []byte
	var err error
	const slack = 256 << 10
	if grew := allocDuring(func() {
		kind, status, reqID, payload, err = readCtrlFrame(bufio.NewReader(bytes.NewReader(in)))
	}); grew > 4*uint64(len(in))+slack {
		t.Fatalf("readCtrlFrame allocated %d bytes on %d input bytes", grew, len(in))
	}
	if err != nil {
		return
	}
	if in[6] == 0 && in[7] == 0 { // the reader ignores the reserved bytes, the writer zeroes them
		if out := encodeCtrlFrame(t, kind, status, reqID, payload); !bytes.Equal(out, in[:len(out)]) {
			t.Fatalf("re-encoded frame differs:\n got % x\nwant % x", out, in[:len(out)])
		}
	}
	statusErr(status, payload)

	// The accepted payload goes through every decoder, whatever the
	// frame's kind: a peer chooses both.
	for _, c := range ctrlCodecs {
		src := bytes.NewReader(payload)
		sized := frame.NewReader(src)
		var got any
		if grew := allocDuring(func() { got = c.decode(sized) }); grew > 4*uint64(len(payload))+slack {
			t.Fatalf("%s decoder allocated %d bytes on a %d-byte payload", c.name, grew, len(payload))
		}
		unsized := frame.NewReader(io.MultiReader(bytes.NewReader(payload)))
		again := c.decode(unsized)
		if (sized.Err() == nil) != (unsized.Err() == nil) {
			t.Fatalf("%s: sized source says %v, unsized %v", c.name, sized.Err(), unsized.Err())
		}
		if sized.Err() != nil {
			continue
		}
		out := c.encode(got)
		if !bytes.Equal(out, c.encode(again)) {
			t.Fatalf("%s: sized source decoded %+v, unsized %+v", c.name, got, again)
		}
		if c.flags == nil {
			continue
		}
		read := append([]byte(nil), payload[:len(payload)-src.Len()]...)
		for _, at := range c.flags(got) {
			read[at] = boolByte(read[at] != 0)
		}
		if !bytes.Equal(out, read) {
			t.Fatalf("%s: re-encoded % x, read from % x", c.name, out, read)
		}
	}
}

func FuzzCtrlFrame(f *testing.F) {
	for _, g := range ctrlGolden {
		f.Add(encodeCtrlFrame(f, g.kind, g.status, g.reqID, g.payload))
	}
	f.Add([]byte{})
	f.Add([]byte{0x43})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	huge := encodeCtrlFrame(f, ckGather, stOK, 1, nil)
	copy(huge[12:], frame.AppendU32(nil, ctrlMaxPayload))
	f.Add(huge)
	f.Add(encodeCtrlFrame(f, ckView, stOK, 1, frame.AppendU32(frame.AppendU32(nil, 3), 1<<20)))
	f.Add(encodeCtrlFrame(f, ckGather, stOK, 1, frame.AppendU32(nil, 1<<20)))
	f.Add(encodeCtrlFrame(f, ckGather, stOK, 1, appendItem(nil, Item{Residual: make([]float32, 3)})[:8+1+8+4+5]))
	f.Fuzz(checkCtrlFrame)
}
