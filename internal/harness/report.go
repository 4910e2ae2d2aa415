package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteReport runs every experiment that has a result and writes the results
// as one indented JSON object, keyed by report key in registry order. It
// writes nothing unless every experiment succeeds.
func (h *Harness) WriteReport(w io.Writer) error {
	obj := []byte{'{'}
	for _, e := range Experiments() {
		if e.result == nil {
			continue
		}
		r, err := e.result(h)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if len(obj) > 1 {
			obj = append(obj, ',')
		}
		obj = append(strconv.AppendQuote(obj, e.key), ':')
		obj = append(obj, b...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(json.RawMessage(append(obj, '}')))
}

// WriteRunsCSV dumps every memoized run (benchmark x model x variant) as a
// flat CSV of the counters downstream analyses most often need.
func (h *Harness) WriteRunsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"key", "bench", "model", "cycles",
		"issued", "backend", "bypassed", "pendingHits", "dummyMovs",
		"vsbLookups", "vsbHits", "verifyReads", "verifyCacheHits",
		"rfReads", "rfWrites", "rfVerify", "bankRetries",
		"l1dAccesses", "l1dMisses", "loadsReused",
		"l2Accesses", "dramAccesses",
		"regUtilAvg", "regUtilPeak",
		"smEnergyPJ", "gpuEnergyPJ",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	h.mu.Lock()
	keys := sortedKeys(h.cache)
	rows := make(map[string]*Result, len(keys))
	for _, k := range keys {
		rows[k] = h.cache[k].r
	}
	h.mu.Unlock()
	for _, k := range keys {
		r := rows[k]
		if r == nil { // entry reserved but its simulation failed or never ran
			continue
		}
		s := &r.Stats
		row := []string{
			k, r.Bench, r.Model.String(),
			strconv.FormatUint(r.Cycles, 10),
			strconv.FormatUint(s.Issued, 10),
			strconv.FormatUint(s.Backend, 10),
			strconv.FormatUint(s.Bypassed, 10),
			strconv.FormatUint(s.PendingHits, 10),
			strconv.FormatUint(s.DummyMovs, 10),
			strconv.FormatUint(s.VSBLookups, 10),
			strconv.FormatUint(s.VSBHits, 10),
			strconv.FormatUint(s.VerifyReads, 10),
			strconv.FormatUint(s.VerifyCHits, 10),
			strconv.FormatUint(s.RFReads, 10),
			strconv.FormatUint(s.RFWrites, 10),
			strconv.FormatUint(s.RFVerify, 10),
			strconv.FormatUint(s.BankRetries, 10),
			strconv.FormatUint(s.L1DAccesses, 10),
			strconv.FormatUint(s.L1DMisses, 10),
			strconv.FormatUint(s.LoadsReused, 10),
			strconv.FormatUint(s.L2Accesses, 10),
			strconv.FormatUint(s.DRAMAccesses, 10),
			strconv.FormatFloat(s.AvgRegUtil(), 'f', 1, 64),
			strconv.FormatUint(s.RegUtilPeak, 10),
			strconv.FormatFloat(r.Energy.SM(), 'f', 0, 64),
			strconv.FormatFloat(r.Energy.Total(), 'f', 0, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunCount returns the number of memoized simulations (for progress
// reporting and tests).
func (h *Harness) RunCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.cache)
}
