package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func testArts(tag string) map[string][]byte {
	return map[string][]byte{
		"stats.json":  []byte(`{"tag":"` + tag + `"}`),
		"trace.jsonl": bytes.Repeat([]byte(tag+"\n"), 8),
		"blob.bin":    {0, 1, 2, '\n', 255, 0, '\n'},
	}
}

func mustStore(t *testing.T, max int64) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), max)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

const tokA = "00000000000000aa"
const tokB = "00000000000000bb"
const tokC = "00000000000000cc"

func TestStoreRoundTrip(t *testing.T) {
	s := mustStore(t, 0)
	want := testArts("x")
	if err := s.Put(tokA, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(tokA)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d artifacts, want %d", len(got), len(want))
	}
	for name, payload := range want {
		if !bytes.Equal(got[name], payload) {
			t.Errorf("artifact %s: got %q want %q", name, got[name], payload)
		}
	}
	// The entry file is named exactly by the token (the stats config_hash and
	// the store filename must be one key).
	if _, err := os.Stat(s.Path(tokA)); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	if _, err := s.Get(tokB); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent token: got %v, want ErrNotFound", err)
	}
	hits, misses, _, _ := s.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// readPaths are the store's read paths: full and by-name reads, counted and
// not, and the artifact index's read that keeps no payload. Each must verify
// every section of the entry, whatever it keeps.
var readPaths = []struct {
	name string
	read func(s *Store) error
}{
	{"Get", func(s *Store) error { _, err := s.Get(tokA); return err }},
	{"Peek", func(s *Store) error { _, err := s.Peek(tokA); return err }},
	{"Get-by-name", func(s *Store) error { _, err := s.Get(tokA, "stats.json"); return err }},
	{"Peek-by-name", func(s *Store) error { _, err := s.Peek(tokA, "stats.json"); return err }},
	{"index", func(s *Store) error { _, _, err := s.read(tokA, false, func(string) bool { return false }); return err }},
}

// sectionSpan returns the payload bounds of the named section of an entry.
func sectionSpan(t *testing.T, entry []byte, name string) (start, end int) {
	t.Helper()
	off := bytes.IndexByte(entry, '\n') + 1
	for off < len(entry) {
		nl := bytes.IndexByte(entry[off:], '\n')
		f := strings.Fields(string(entry[off : off+nl]))
		size, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("section header %q: %v", f, err)
		}
		start = off + nl + 1
		if f[0] == name {
			return start, start + size
		}
		off = start + size + 1
	}
	t.Fatalf("entry has no section %s", name)
	return 0, 0
}

// requireRejected writes each bad entry under tokA and requires every read
// path to report ErrCorrupt and quarantine the file.
func requireRejected(t *testing.T, bad map[string][]byte) {
	for _, rp := range readPaths {
		s := mustStore(t, 0)
		for cell, data := range bad {
			if err := s.Put(tokA, testArts("x")); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path(tokA), data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, before := s.Counters()
			if err := rp.read(s); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s, %s: got %v, want ErrCorrupt", rp.name, cell, err)
			}
			if _, _, _, q := s.Counters(); q != before+1 {
				t.Fatalf("%s, %s: quarantines %d -> %d, want one more", rp.name, cell, before, q)
			}
			if s.Entries() != 0 {
				t.Fatalf("%s, %s: corrupt entry still indexed", rp.name, cell)
			}
			if _, err := os.Stat(s.Path(tokA)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s, %s: corrupt entry file still present under its token", rp.name, cell)
			}
		}
		quarantined, _ := filepath.Glob(s.Path(tokA) + ".corrupt-*")
		if len(quarantined) != len(bad) {
			t.Fatalf("%s: %d quarantine files, want %d", rp.name, len(quarantined), len(bad))
		}
	}
}

// TestStoreCorruption flips one payload byte in the first, a middle and the
// last section and expects every read path to detect it and quarantine the
// entry, and a clean re-Put to serve again afterwards.
func TestStoreCorruption(t *testing.T) {
	entry := EncodeEntry(tokA, testArts("x"))
	bad := map[string][]byte{}
	for _, name := range []string{"blob.bin", "stats.json", "trace.jsonl"} { // sorted: first, middle, last
		start, end := sectionSpan(t, entry, name)
		data := bytes.Clone(entry)
		data[(start+end)/2] ^= 0x40
		bad["flip in "+name] = data
	}
	requireRejected(t, bad)

	// The token is reusable: re-simulate, re-Put, and it serves again.
	s := mustStore(t, 0)
	if err := os.WriteFile(s.Path(tokA), bad["flip in stats.json"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(tokA); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt entry: got %v, want ErrCorrupt", err)
	}
	if err := s.Put(tokA, testArts("y")); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	got, err := s.Get(tokA)
	if err != nil {
		t.Fatalf("Get after re-Put: %v", err)
	}
	if !bytes.Equal(got["stats.json"], []byte(`{"tag":"y"}`)) {
		t.Fatalf("stale payload after re-Put: %q", got["stats.json"])
	}
}

// TestStoreTruncation cuts the entry at every offset and expects every read
// path to detect it and quarantine the entry.
func TestStoreTruncation(t *testing.T) {
	entry := EncodeEntry(tokA, testArts("x"))
	bad := map[string][]byte{}
	for cut := 0; cut < len(entry); cut++ {
		bad[fmt.Sprintf("cut at %d", cut)] = entry[:cut]
	}
	requireRejected(t, bad)
}

// oldEntry encodes arts in the old wir-store/1 format, FNV-64a checksums and
// all.
func oldEntry(token string, arts map[string][]byte) []byte {
	names := make([]string, 0, len(arts))
	for n := range arts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "wir-store/1 %s %d\n", token, len(names))
	for _, n := range names {
		fh := fnv.New64a()
		fh.Write(arts[n])
		fmt.Fprintf(&b, "%s %d %016x\n", n, len(arts[n]), fh.Sum64())
		b.Write(arts[n])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestStoreOldSchemaIsMiss: an entry in the old wir-store/1 format (FNV-64a
// checksums) is a plain miss — not corrupt, not quarantined — and the next
// Put replaces it.
func TestStoreOldSchemaIsMiss(t *testing.T) {
	old := oldEntry(tokA, testArts("x"))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tokA), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(tokA); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("old entry: got %v, want ErrNotFound", err)
	}
	if _, err := s.Peek(tokA, "stats.json"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old entry by name: got %v, want ErrNotFound", err)
	}
	if hits, misses, _, quarantines := s.Counters(); hits != 0 || misses != 1 || quarantines != 0 {
		t.Fatalf("counters: hits=%d misses=%d quarantines=%d, want 0/1/0", hits, misses, quarantines)
	}
	if data, err := os.ReadFile(s.Path(tokA)); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("old entry was moved or changed (err=%v)", err)
	}
	if quarantined, _ := filepath.Glob(s.Path(tokA) + ".corrupt-*"); len(quarantined) != 0 {
		t.Fatalf("old entry quarantined: %v", quarantined)
	}
	if err := s.Put(tokA, testArts("y")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(tokA)
	if err != nil {
		t.Fatalf("Get after Put: %v", err)
	}
	if !bytes.Equal(got["stats.json"], []byte(`{"tag":"y"}`)) {
		t.Fatalf("Put did not replace the old entry: %q", got["stats.json"])
	}
}

// TestStoreHugeSectionLength: a section header claiming far more bytes than
// the entry holds is corrupt, and is rejected before the payload is
// allocated.
func TestStoreHugeSectionLength(t *testing.T) {
	data := []byte(fmt.Sprintf("%s %s 1\nblob %d 0000000000000000\nxyz\n", StoreSchema, tokA, int64(1)<<40))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeEntry(tokA, data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeEntry: got %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("DecodeEntry allocated %d bytes for a rejected entry", alloc)
	}
	requireRejected(t, map[string][]byte{"length 1<<40": data})
}

// TestStoreLongHeaderLine: a header line longer than the read buffer is
// corrupt.
func TestStoreLongHeaderLine(t *testing.T) {
	data := []byte(fmt.Sprintf("%s %s 1\n%s 1 %016x\nx\n", StoreSchema, tokA,
		strings.Repeat("a", entryBuf), crc64.Checksum([]byte("x"), crcTable)))
	if _, err := DecodeEntry(tokA, data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeEntry: got %v, want ErrCorrupt", err)
	}
	requireRejected(t, map[string][]byte{"long header": data})
}

// TestStoreNamedReadAllocations: reading one named artifact streams the rest
// of a large entry through the read buffer instead of copying it.
func TestStoreNamedReadAllocations(t *testing.T) {
	s := mustStore(t, 0)
	arts := testArts("x")
	arts["trace.jsonl"] = bytes.Repeat([]byte("0123456789abcdef"), 2<<20) // 32 MiB
	if err := s.Put(tokA, arts); err != nil {
		t.Fatal(err)
	}
	for _, rp := range []struct {
		name string
		read func(string, ...string) (map[string][]byte, error)
	}{{"Get", s.Get}, {"Peek", s.Peek}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := rp.read(tokA, "stats.json")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", rp.name, err)
		}
		if len(got) != 1 || !bytes.Equal(got["stats.json"], arts["stats.json"]) {
			t.Fatalf("%s: got %d artifacts, stats.json %q", rp.name, len(got), got["stats.json"])
		}
		extra := after.TotalAlloc - before.TotalAlloc - uint64(len(got["stats.json"]))
		t.Logf("%s: %d bytes allocated beyond the artifact", rp.name, extra)
		if extra >= 1<<20 {
			t.Fatalf("%s of one artifact from a %d-byte entry allocated %d bytes beyond it", rp.name, s.Bytes(), extra)
		}
	}
}

// TestStoreWrongTokenEntry guards the content address: an entry copied to a
// different filename must not serve under the wrong key.
func TestStoreWrongTokenEntry(t *testing.T) {
	s := mustStore(t, 0)
	if err := s.Put(tokA, testArts("x")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.Path(tokA))
	if err := os.WriteFile(s.Path(tokB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen so tokB gets indexed, then read it.
	s2, err := OpenStore(s.dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(tokB); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mis-addressed entry: got %v, want ErrCorrupt", err)
	}
}

// TestStoreLRU fills past the cap and expects the least-recently-used entry
// (not the least-recently-written one) to go.
func TestStoreLRU(t *testing.T) {
	arts := testArts("x")
	entrySize := int64(len(EncodeEntry(tokA, arts)))
	dir := t.TempDir()
	s, err := OpenStore(dir, 2*entrySize+entrySize/2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tokA, arts); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(tokB, arts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(tokA); err != nil { // refresh A: B becomes the LRU
		t.Fatal(err)
	}
	if err := s.Put(tokC, arts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(tokB)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LRU victim B still on disk (err=%v)", err)
	}
	for _, tok := range []string{tokA, tokC} {
		if _, err := s.Get(tok); err != nil {
			t.Fatalf("survivor %s: %v", tok, err)
		}
	}
	_, _, evictions, _ := s.Counters()
	if evictions != 1 {
		t.Fatalf("evictions=%d, want 1", evictions)
	}
	if s.Bytes() > 2*entrySize+entrySize/2 {
		t.Fatalf("store over cap: %d bytes", s.Bytes())
	}
}

// TestStoreOversizeEntrySurvives: an entry bigger than the whole cap is still
// stored (evicting everything else) rather than thrashing.
func TestStoreOversizeEntrySurvives(t *testing.T) {
	s := mustStore(t, 64)
	big := map[string][]byte{"blob": bytes.Repeat([]byte{7}, 4096)}
	if err := s.Put(tokA, big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(tokA); err != nil {
		t.Fatalf("oversize entry evicted itself: %v", err)
	}
}

// TestStoreReopen proves persistence: a second store over the same directory
// serves what the first one wrote, and the LRU index survives via mtimes.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(tokA, testArts("x")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Entries() != 1 || s2.Bytes() == 0 {
		t.Fatalf("reopened index: %d entries, %d bytes", s2.Entries(), s2.Bytes())
	}
	got, err := s2.Get(tokA)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if !bytes.Equal(got["stats.json"], []byte(`{"tag":"x"}`)) {
		t.Fatalf("wrong payload after reopen: %q", got["stats.json"])
	}
}

// TestStoreConcurrentReaders hammers one token with rewrites while readers
// Get it: because writes are rename-atomic and every read is checksummed, a
// reader must always see one complete version — never a mix, never a prefix.
func TestStoreConcurrentReaders(t *testing.T) {
	s := mustStore(t, 0)
	versions := map[string]bool{}
	const rounds = 100
	for i := 0; i < rounds; i++ {
		versions[fmt.Sprintf(`{"tag":"v%d"}`, i)] = true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				arts, err := s.Get(tokA)
				if errors.Is(err, ErrNotFound) {
					continue // writer has not produced the first version yet
				}
				if err != nil {
					errs <- fmt.Errorf("reader saw: %w", err)
					return
				}
				if !versions[string(arts["stats.json"])] {
					errs <- fmt.Errorf("reader saw torn version %q", arts["stats.json"])
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if err := s.Put(tokA, testArts(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzDecodeEntry feeds arbitrary bytes to the decoder. It must never panic,
// must type every rejection, and anything it accepts must re-encode to an
// entry that decodes to the same artifacts.
func FuzzDecodeEntry(f *testing.F) {
	valid := EncodeEntry(tokA, testArts("x"))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-4] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(EncodeEntry(tokA, nil))
	f.Add(oldEntry(tokA, testArts("x")))
	f.Fuzz(func(t *testing.T, data []byte) {
		arts, err := DecodeEntry(tokA, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		again, err := DecodeEntry(tokA, EncodeEntry(tokA, arts))
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if len(again) != len(arts) {
			t.Fatalf("re-encoded entry has %d artifacts, want %d", len(again), len(arts))
		}
		for name, payload := range arts {
			if got, ok := again[name]; !ok || !bytes.Equal(got, payload) {
				t.Fatalf("artifact %s changed through re-encoding", name)
			}
		}
	})
}

func TestValidToken(t *testing.T) {
	for tok, want := range map[string]bool{
		"0123456789abcdef":  true,
		"0123456789ABCDEF":  false, // uppercase: not what KeyHash emits
		"0123456789abcde":   false,
		"0123456789abcdef0": false,
		"0123456789abcdeg":  false,
		"":                  false,
		"../../etc/passwd":  false,
	} {
		if ValidToken(tok) != want {
			t.Errorf("ValidToken(%q) = %v, want %v", tok, !want, want)
		}
	}
}
