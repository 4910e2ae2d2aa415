package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestJSONWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	events := []Event{
		{Kind: KindIssue, Cycle: 1, SM: 0, Warp: 2, PC: 3, Seq: 1, Op: "iadd", Launch: 1, Block: 4, WarpInBlock: 0, Kernel: "kmeans"},
		{Kind: KindRetire, Cycle: 9, SM: 0, Warp: 2, PC: 3, Seq: 1, Op: "iadd", Launch: 1, Block: 4, WarpInBlock: 0, Result: 0xDEADBEEF12345678},
	}
	for _, e := range events {
		jw.Emit(e)
	}
	if jw.Err() != nil || jw.Count() != 2 {
		t.Fatalf("err=%v count=%d", jw.Err(), jw.Count())
	}
	if !strings.Contains(buf.String(), `"schema":"wir-trace/1"`) {
		t.Fatalf("missing schema header: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"result":"deadbeef12345678"`) {
		t.Fatalf("result not hex-encoded: %s", buf.String())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d events read", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

// oldFormatJSONL is a stream exactly as an older writer would emit it: no
// kernel key.
const oldFormatJSONL = `{"schema":"wir-trace/1"}` + "\n" +
	`{"kind":"issue","cycle":1,"sm":0,"warp":2,"pc":3,"seq":1,"op":"iadd"}` + "\n"

// TestJSONKernelFieldIsOptional checks the wir-trace/1 compatibility rule:
// the kernel field is additive. Events without it (as written by older
// producers) still parse, and events that omit it don't serialize the key.
func TestJSONKernelFieldIsOptional(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(oldFormatJSONL))
	if err != nil {
		t.Fatalf("old-format line rejected: %v", err)
	}
	if len(got) != 1 || got[0].Kernel != "" {
		t.Fatalf("got %+v", got)
	}

	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	jw.Emit(Event{Kind: KindIssue, Cycle: 1, SM: 0, Warp: 2, PC: 3, Seq: 1, Op: "iadd"})
	jw.Emit(Event{Kind: KindIssue, Cycle: 2, SM: 0, Warp: 2, PC: 4, Seq: 2, Op: "imul", Kernel: "kmeans"})
	lines := strings.SplitN(strings.TrimSpace(buf.String()), "\n", 2)
	if strings.Contains(lines[0], "kernel") {
		t.Fatalf("empty kernel must be omitted: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kernel":"kmeans"`) {
		t.Fatalf("kernel field missing: %s", lines[1])
	}
}

func TestJSONWriterFilters(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf).FilterKinds(KindRetire)
	jw.SM = 1
	jw.Warp = 3
	jw.Emit(Event{Kind: KindIssue, SM: 1, Warp: 3})  // wrong kind
	jw.Emit(Event{Kind: KindRetire, SM: 0, Warp: 3}) // wrong SM
	jw.Emit(Event{Kind: KindRetire, SM: 1, Warp: 2}) // wrong warp
	jw.Emit(Event{Kind: KindRetire, SM: 1, Warp: 3}) // passes
	if jw.Count() != 1 {
		t.Fatalf("filtered count = %d, want 1", jw.Count())
	}
}

// badJSONL lists streams the reader must reject, by what is wrong with them.
var badJSONL = []struct{ what, in string }{
	{"wrong schema", `{"schema":"wrong/1"}` + "\n"},
	{"empty stream", ""},
	{"unknown kind", `{"schema":"wir-trace/1"}` + "\n" + `{"kind":"flarp"}` + "\n"},
	{"malformed result", `{"schema":"wir-trace/1"}` + "\n" + `{"kind":"retire","result":"zzzz"}` + "\n"},
	// The writer puts a result only on retire events, so one elsewhere
	// would be dropped by re-encoding.
	{"result on an issue event", `{"schema":"wir-trace/1"}` + "\n" + `{"kind":"issue","result":"0000000000000001"}` + "\n"},
}

func TestReadJSONLRejectsBadInput(t *testing.T) {
	for _, c := range badJSONL {
		if _, err := ReadJSONL(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

// FuzzReadJSONL feeds arbitrary streams to the wir-trace/1 reader behind
// wirdiff -ja and wirtrace. Nothing may panic, and every stream it accepts
// must re-encode through JSONWriter to a stream that reads back as the same
// events: the reader accepts nothing the writer cannot say.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	jw.Emit(Event{Kind: KindIssue, Cycle: 1, Warp: 2, PC: 3, Seq: 1, Op: "iadd", Launch: 1, Block: 4, Kernel: "kmeans"})
	jw.Emit(Event{Kind: KindRetire, Cycle: 9, Warp: 2, PC: 3, Seq: 1, Op: "iadd", Launch: 1, Block: 4, Result: 0xDEADBEEF12345678})
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"wir-trace/1"}` + "\n"))
	for _, c := range badJSONL {
		f.Add([]byte(c.in))
	}
	f.Add([]byte(oldFormatJSONL))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		jw := NewJSONWriter(&out)
		for _, e := range events {
			jw.Emit(e)
		}
		if err := jw.Err(); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		again, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, out.Bytes())
		}
		if !slices.Equal(events, again) {
			t.Fatalf("re-encoding changed the events:\n%+v\n%+v", events, again)
		}
	})
}

func TestReadRetireRecorder(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	// Include non-retire noise: the recorder must keep only retires.
	jw.Emit(Event{Kind: KindIssue, Launch: 1, Block: 0, WarpInBlock: 0, Seq: 1})
	jw.Emit(Event{Kind: KindRetire, Launch: 1, Block: 0, WarpInBlock: 0, PC: 7, Seq: 1, Result: 5})
	jw.Emit(Event{Kind: KindRetire, Launch: 1, Block: 2, WarpInBlock: 1, PC: 8, Seq: 1, Result: 6})
	rec, err := ReadRetireRecorder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Streams) != 2 {
		t.Fatalf("%d streams", len(rec.Streams))
	}
	s := rec.Streams[[3]int{1, 0, 0}]
	if len(s) != 1 || s[0].PC != 7 || s[0].Result != 5 {
		t.Fatalf("stream wrong: %+v", s)
	}
	// A recorder loaded from disk must compare clean against a live recorder
	// of the same run.
	live := NewRetireRecorder()
	live.Emit(Event{Kind: KindRetire, Launch: 1, Block: 0, WarpInBlock: 0, PC: 7, Seq: 1, Result: 5})
	live.Emit(Event{Kind: KindRetire, Launch: 1, Block: 2, WarpInBlock: 1, PC: 8, Seq: 1, Result: 6})
	if d := Divergence(rec, live); d != "" {
		t.Fatalf("recorded vs live diverged: %s", d)
	}
}

func TestMultiFansOut(t *testing.T) {
	r1, r2 := NewRing(4), NewRing(4)
	m := Multi{r1, r2}
	m.Emit(Event{Cycle: 1})
	m.Emit(Event{Cycle: 2})
	if len(r1.Events()) != 2 || len(r2.Events()) != 2 {
		t.Fatalf("fan-out missed a sink: %d / %d", len(r1.Events()), len(r2.Events()))
	}
}
