// Package serve implements wirserve, the simulation-as-a-service daemon: a
// REST/JSON job API (wir-serve/1) in which every job is one simulation, a
// bounded worker pool, and a disk-backed content-addressed result store. A
// job's six artifacts are one store entry under its token, the harness cache
// key hash that is also its stats report's config_hash, so a config that has
// ever been simulated — by this process or a previous one — is never
// simulated again.
package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// StoreSchema identifies the on-disk entry container format.
const StoreSchema = "wir-store/2"

// ErrNotFound reports a token with no (valid) store entry.
var ErrNotFound = errors.New("serve: store entry not found")

// ErrCorrupt reports an entry that failed checksum or framing validation. The
// store quarantines such entries on read, so a corrupt error is also a miss:
// the caller re-simulates and overwrites.
var ErrCorrupt = errors.New("serve: store entry corrupt")

// Store is a disk-backed content-addressed artifact store. Each entry is one
// file named by its 16-hex-digit token (harness.KeyHash of the run's cache
// key) holding a checksummed set of named artifacts. Writes go through a
// temp-file rename, so concurrent readers never observe partial bytes;
// corrupted or truncated entries are detected on read, quarantined aside for
// forensics, and reported as misses; an LRU sweep keeps total bytes under the
// configured cap.
type Store struct {
	dir string
	max int64 // byte cap; 0 = unlimited

	mu      sync.Mutex
	sizes   map[string]int64 // token -> entry file size
	recency map[string]int64 // token -> last-use tick
	tick    int64
	total   int64
	hits    uint64
	misses  uint64
	evict   uint64
	quarant uint64
	tmpSeq  int64
}

// OpenStore opens (creating if needed) a store rooted at dir with the given
// byte cap (0 = unlimited). Existing entries are indexed by file size and
// modification time, so LRU order approximately survives restarts.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, max: maxBytes, sizes: map[string]int64{}, recency: map[string]int64{}}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type aged struct {
		tok string
		mod time.Time
	}
	var order []aged
	for _, de := range des {
		name := de.Name()
		if !ValidToken(name) {
			continue // temp files, quarantined entries, foreign files
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.sizes[name] = info.Size()
		s.total += info.Size()
		order = append(order, aged{name, info.ModTime()})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].mod.Before(order[j].mod) })
	for _, a := range order {
		s.tick++
		s.recency[a.tok] = s.tick
	}
	return s, nil
}

// ValidToken reports whether s is a well-formed 16-hex-digit content address.
func ValidToken(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Path returns the entry file path for a token.
func (s *Store) Path(token string) string { return filepath.Join(s.dir, token) }

// Entries returns the number of indexed entries.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Bytes returns the total indexed entry bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Counters returns (hits, misses, evictions, quarantines) so far.
func (s *Store) Counters() (hits, misses, evictions, quarantines uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evict, s.quarant
}

// Get reads the entry for token and returns the named artifacts, or every
// artifact when none is named. The read verifies every section whatever it
// keeps, and a hit refreshes the entry's recency. A missing entry, one in the
// old wir-store/1 format, or one that lacks a named artifact returns
// ErrNotFound. A corrupt or truncated entry is quarantined (renamed aside,
// dropped from the index) and returns an error wrapping ErrCorrupt — callers
// treat both as a miss and re-simulate.
func (s *Store) Get(token string, names ...string) (map[string][]byte, error) {
	arts, _, err := s.read(token, true, names, keepNamed(names))
	return arts, err
}

// Peek is Get without the hit/miss accounting: artifact downloads of an
// already-answered job should not inflate the cache-effectiveness ratio the
// /metrics gauges report. Verification, corruption handling and recency
// refresh are identical to Get.
func (s *Store) Peek(token string, names ...string) (map[string][]byte, error) {
	arts, _, err := s.read(token, false, names, keepNamed(names))
	return arts, err
}

// keepNamed selects the named artifacts, or every artifact when none is named.
func keepNamed(names []string) func(string) bool {
	if len(names) == 0 {
		return func(string) bool { return true }
	}
	return func(name string) bool { return slices.Contains(names, name) }
}

// read streams the entry for token through the codec, keeping the payloads
// keep selects, and returns them with every artifact name in entry order.
// An entry without every artifact need names is a miss. count selects
// hit/miss accounting.
func (s *Store) read(token string, count bool, need []string, keep func(string) bool) (map[string][]byte, []string, error) {
	if !ValidToken(token) {
		return nil, nil, fmt.Errorf("%w: bad token %q", ErrNotFound, token)
	}
	f, err := os.Open(s.Path(token))
	if errors.Is(err, os.ErrNotExist) {
		s.miss(count, false)
		return nil, nil, ErrNotFound
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	arts, names, err := decodeEntry(f, fi.Size(), token, keep)
	switch {
	case errors.Is(err, ErrCorrupt):
		s.quarantine(token)
		s.miss(count, true)
	case errors.Is(err, ErrNotFound): // an old-format entry: the next Put replaces it
		s.miss(count, false)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, n := range need {
		if _, ok := arts[n]; !ok {
			s.miss(count, false)
			return nil, nil, fmt.Errorf("%w: entry has no %s", ErrNotFound, n)
		}
	}
	now := time.Now()
	s.mu.Lock()
	if count {
		s.hits++
	}
	s.tick++
	s.recency[token] = s.tick
	s.mu.Unlock()
	// Best-effort mtime touch so the LRU order survives a restart.
	_ = os.Chtimes(s.Path(token), now, now)
	return arts, names, nil
}

func (s *Store) miss(count, corrupt bool) {
	s.mu.Lock()
	if count {
		s.misses++
	}
	if corrupt {
		s.quarant++
	}
	s.mu.Unlock()
}

// quarantine moves a bad entry aside (token.corrupt-N) and drops it from the
// index. The bytes stay on disk for diagnosis but no longer count toward the
// cap and can never be served.
func (s *Store) quarantine(token string) {
	s.mu.Lock()
	if sz, ok := s.sizes[token]; ok {
		s.total -= sz
		delete(s.sizes, token)
		delete(s.recency, token)
	}
	s.tmpSeq++
	seq := s.tmpSeq
	s.mu.Unlock()
	_ = os.Rename(s.Path(token), s.Path(token)+fmt.Sprintf(".corrupt-%d", seq))
}

// Put atomically writes the entry for token: encode straight into a temp
// file in the same directory, then rename it over the final name. A reader
// racing the rename sees either the old complete entry or the new complete
// entry, never a prefix. There is no fsync: a file torn by a crash fails
// framing or checksum on its next read. After indexing, least-recently-used
// entries are evicted until the total is back under the cap (the entry just
// written survives even if it alone exceeds the cap).
func (s *Store) Put(token string, artifacts map[string][]byte) error {
	if !ValidToken(token) {
		return fmt.Errorf("serve: Put with bad token %q", token)
	}
	s.mu.Lock()
	s.tmpSeq++
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), s.tmpSeq))
	s.mu.Unlock()
	size, err := writeEntry(tmp, token, artifacts)
	if err == nil {
		err = os.Rename(tmp, s.Path(token))
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	s.mu.Lock()
	if old, ok := s.sizes[token]; ok {
		s.total -= old
	}
	s.sizes[token] = size
	s.total += size
	s.tick++
	s.recency[token] = s.tick
	victims := s.planEvictionsLocked(token)
	s.mu.Unlock()
	for _, v := range victims {
		_ = os.Remove(s.Path(v))
	}
	return nil
}

// writeEntry encodes the entry into a new file at path and returns its size.
func writeEntry(path, token string, artifacts map[string][]byte) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	size, err := encodeEntry(bufio.NewWriter(f), token, artifacts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return size, err
}

// planEvictionsLocked removes over-cap LRU victims from the index (never
// keep, the entry just written) and returns their tokens for file removal.
func (s *Store) planEvictionsLocked(keep string) []string {
	if s.max <= 0 {
		return nil
	}
	var victims []string
	for s.total > s.max && len(s.sizes) > 1 {
		oldest, oldestTick := "", int64(1<<62)
		for tok, tk := range s.recency {
			if tok != keep && tk < oldestTick {
				oldest, oldestTick = tok, tk
			}
		}
		if oldest == "" {
			break
		}
		s.total -= s.sizes[oldest]
		delete(s.sizes, oldest)
		delete(s.recency, oldest)
		s.evict++
		victims = append(victims, oldest)
	}
	return victims
}

// --- entry container format ---
//
// Entries are a single self-checking file:
//
//	wir-store/2 <token> <n>\n
//	<name> <length> <crc64-16hex>\n<bytes>\n     (n sections, names sorted)
//
// Every section carries its own CRC-64-ECMA checksum, so a flipped byte
// anywhere is detected; lengths frame the payloads, so truncation anywhere is
// detected.

// entryBuf is the size of the one buffer a read streams an entry through,
// and so also the longest header line an entry may hold.
const entryBuf = 256 << 10

var crcTable = crc64.MakeTable(crc64.ECMA)

// encodeEntry writes the artifact set as one entry, names sorted so encoding
// is deterministic, and returns the entry's size.
func encodeEntry(w *bufio.Writer, token string, artifacts map[string][]byte) (int64, error) {
	names := make([]string, 0, len(artifacts))
	for n := range artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	// A bufio.Writer keeps its first error and returns it from every later
	// call, so only Flush needs checking.
	k, _ := fmt.Fprintf(w, "%s %s %d\n", StoreSchema, token, len(names))
	size := int64(k)
	for _, n := range names {
		payload := artifacts[n]
		k, _ = fmt.Fprintf(w, "%s %d %016x\n", n, len(payload), crc64.Checksum(payload, crcTable))
		_, _ = w.Write(payload)
		_ = w.WriteByte('\n')
		size += int64(k + len(payload) + 1)
	}
	return size, w.Flush()
}

// decodeEntry streams a size-byte entry from r through one buffer of at most
// entryBuf bytes. It checks the schema line and token, every section header,
// length and terminator, every section checksum, and that only ASCII
// whitespace follows the last section. It returns the payloads keep selects
// and every artifact name in entry order. Format errors wrap ErrCorrupt, an
// entry in the old wir-store/1 format is an error wrapping ErrNotFound, and
// other read errors pass through.
func decodeEntry(r io.Reader, size int64, token string, keep func(string) bool) (map[string][]byte, []string, error) {
	src := &io.LimitedReader{R: r, N: size}
	br := bufio.NewReaderSize(src, int(min(size, entryBuf)))
	corrupt := func(format string, args ...any) (map[string][]byte, []string, error) {
		return nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	// Running out of entry bytes, or of buffer for a header line, is
	// corruption; any other read error is an I/O failure.
	fail := func(what string, err error) (map[string][]byte, []string, error) {
		switch {
		case errors.Is(err, io.EOF):
			return corrupt("truncated in %s", what)
		case errors.Is(err, bufio.ErrBufferFull):
			return corrupt("%s is longer than %d bytes", what, br.Size())
		}
		return nil, nil, fmt.Errorf("%s: %w", what, err)
	}
	// Header lines keep their '\n'; strings.Fields drops it.
	head, err := br.ReadSlice('\n')
	if err != nil {
		return fail("header", err)
	}
	hf := strings.Fields(string(head))
	if len(hf) > 0 && hf[0] == "wir-store/1" {
		return nil, nil, fmt.Errorf("%w: entry in the old wir-store/1 format", ErrNotFound)
	}
	if len(hf) != 3 || hf[0] != StoreSchema {
		return corrupt("bad header %q", head)
	}
	if hf[1] != token {
		return corrupt("entry is for token %s, file named %s", hf[1], token)
	}
	n, err := strconv.Atoi(hf[2])
	if err != nil || n < 0 {
		return corrupt("bad artifact count %q", hf[2])
	}
	arts := map[string][]byte{}
	var names []string
	for i := 0; i < n; i++ {
		what := fmt.Sprintf("section %d", i)
		head, err := br.ReadSlice('\n')
		if err != nil {
			return fail(what+" header", err)
		}
		sf := strings.Fields(string(head))
		if len(sf) != 3 {
			return corrupt("bad %s header %q", what, head)
		}
		name := sf[0]
		what += " (" + name + ")"
		plen, err := strconv.ParseInt(sf[1], 10, 64)
		if err != nil || plen < 0 {
			return corrupt("bad %s length %q", what, sf[1])
		}
		// Checked before anything is allocated: the payload and its
		// terminator must fit in what is left of the entry.
		if left := src.N + int64(br.Buffered()); plen >= left {
			return corrupt("%s claims %d bytes, %d remain", what, plen, left)
		}
		kept := keep(name)
		payload, sum, err := readPayload(br, plen, kept)
		if err != nil {
			return fail(what+" payload", err)
		}
		if c, err := br.ReadByte(); err != nil {
			return fail(what+" terminator", err)
		} else if c != '\n' {
			return corrupt("%s payload not terminated", what)
		}
		if got := fmt.Sprintf("%016x", sum); got != sf[2] {
			return corrupt("%s checksum mismatch: %s != %s", what, got, sf[2])
		}
		if kept {
			arts[name] = payload
		}
		names = append(names, name)
	}
	for {
		c, err := br.ReadByte()
		if err == io.EOF {
			return arts, names, nil
		}
		if err != nil {
			return fail("trailer", err)
		}
		if !strings.ContainsRune(" \t\n\v\f\r", rune(c)) {
			return corrupt("non-whitespace byte after the last section")
		}
	}
}

// readPayload consumes n payload bytes from br a buffer at a time and
// returns their CRC-64, plus a copy of them when keep is set.
func readPayload(br *bufio.Reader, n int64, keep bool) ([]byte, uint64, error) {
	var out []byte
	if keep {
		out = make([]byte, 0, n)
	}
	var sum uint64
	for n > 0 {
		// Take what is buffered before reading more, so the buffer never
		// slides its contents.
		k := br.Buffered()
		if k == 0 {
			k = br.Size()
		}
		chunk, err := br.Peek(int(min(n, int64(k))))
		if err != nil {
			return nil, 0, err
		}
		sum = crc64.Update(sum, crcTable, chunk)
		if keep {
			out = append(out, chunk...)
		}
		_, _ = br.Discard(len(chunk)) // cannot fail: chunk is buffered
		n -= int64(len(chunk))
	}
	return out, sum, nil
}

// EncodeEntry renders the artifact set as one wir-store/2 entry in memory.
func EncodeEntry(token string, artifacts map[string][]byte) []byte {
	var out sliceWriter
	_, _ = encodeEntry(bufio.NewWriter(&out), token, artifacts) // sliceWriter never fails
	return out
}

// DecodeEntry decodes and verifies a whole wir-store/2 entry held in memory.
func DecodeEntry(token string, data []byte) (map[string][]byte, error) {
	arts, _, err := decodeEntry(bytes.NewReader(data), int64(len(data)), token, keepNamed(nil))
	return arts, err
}

// sliceWriter appends everything written to it.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
