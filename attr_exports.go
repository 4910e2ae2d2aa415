package wir

import (
	"io"

	"github.com/wirsim/wir/internal/attr"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/pprofenc"
)

// AttrCollector accumulates per-(kernel, SM, PC) attribution: issue, bypass
// and retry counts, per-PC energy estimates, and stall cycles blamed on the
// blocking producer's PC. Attach with GPU.SetAttribution before the run.
type AttrCollector = attr.Collector

// NewAttrCollector returns an empty collector costed with the default 45 nm
// energy coefficients.
func NewAttrCollector() *AttrCollector { return attr.NewCollector() }

// PCStats is one program counter's attribution record.
type PCStats = attr.PCStats

// Hotspot is one row of the merged per-PC hotspot ranking, as embedded in
// the wir-stats/1 report.
type Hotspot = metrics.Hotspot

// WriteHotspots renders hotspot rows as an aligned text table.
func WriteHotspots(w io.Writer, hs []Hotspot) error { return attr.WriteHotspots(w, hs) }

// PprofProfile is the in-memory form of a pprof profile.proto, encoded
// without external dependencies.
type PprofProfile = pprofenc.Profile
