package wir

import "github.com/wirsim/wir/internal/metrics"

// MetricsRegistry holds named counters, gauges and log2-bucketed histograms.
// All instruments update atomically, so a live HTTP exporter can scrape a run
// in progress.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Instruments bundles the histograms fed by the simulator's hot paths
// (reuse distance, bank-conflict retries, MSHR occupancy, pending-queue wait,
// issue-to-retire latency). Attach with GPU.SetInstruments.
type Instruments = metrics.Instruments

// NewInstruments creates the standard instrument set registered in reg (reg
// may be nil for unregistered collection).
func NewInstruments(reg *MetricsRegistry) *Instruments { return metrics.NewInstruments(reg) }

// Sampler snapshots the run counters every Every cycles into an interval
// time series. Attach with GPU.SetSampler; close the tail interval with
// GPU.FlushSampler.
type Sampler = metrics.Sampler

// NewSampler returns a sampler with the given interval length in cycles.
func NewSampler(every uint64) *Sampler { return metrics.NewSampler(every) }

// MetricsSample is one interval of a sampled time series.
type MetricsSample = metrics.Sample

// StallReason classifies why a scheduler slot failed to issue in a cycle.
type StallReason = metrics.StallReason

// StallReport aggregates per-scheduler-slot issue/stall accounting for a run.
type StallReport = metrics.StallReport

// StatsReport is the machine-readable end-of-run report (wir-stats/1).
type StatsReport = metrics.Report

// NewStatsReport builds a report from the final counters.
func NewStatsReport(benchmark, model string, sms int, st *Stats) *StatsReport {
	return metrics.NewReport(benchmark, model, sms, st)
}

// MetricsHandler returns an http.Handler exposing reg at /metrics in the
// Prometheus text format plus the net/http/pprof endpoints.
var MetricsHandler = metrics.Handler

// ServeMetrics binds addr and serves reg on it in a new goroutine; a failure
// to bind is returned.
var ServeMetrics = metrics.Serve
