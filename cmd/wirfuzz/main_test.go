package main

import (
	"reflect"
	"testing"

	"github.com/wirsim/wir/internal/config"
)

// TestSweepRangeWidthInvariant: the in-process pool records the same
// failures, in ascending seed order, at width 4 as a serial sweep does at
// width 1. The forced-failure sweep (watchdog 1) fails and minimizes every
// seed; the chaos sweep mixes clean and failing seeds, each failure carrying
// its per-seed chaos spec.
func TestSweepRangeWidthInvariant(t *testing.T) {
	base := sweep{model: config.RLPV, modelName: "RLPV", sms: 2, length: 24, shared: "auto"}
	forced := base
	forced.watchdog = 1
	chaotic := base
	chaotic.watchdog = 300
	chaotic.chaosSpec, chaotic.chaosSeed, chaotic.chaosRest = "3,0.002,all", 3, "0.002,all"

	for _, c := range []struct {
		name               string
		sw                 sweep
		n                  int64
		minFails, maxFails int
	}{
		{"forced-failure", forced, 8, 8, 8},
		{"chaos", chaotic, 16, 1, 15},
	} {
		t.Run(c.name, func(t *testing.T) {
			serial, pooled := c.sw, c.sw
			serial.sweepRange(0, c.n, 1)
			pooled.sweepRange(0, c.n, 4)
			if got := len(serial.failures); got < c.minFails || got > c.maxFails {
				t.Fatalf("%d of %d seeds failed, want %d to %d", got, c.n, c.minFails, c.maxFails)
			}
			for i := 1; i < len(serial.failures); i++ {
				if serial.failures[i-1].Seed >= serial.failures[i].Seed {
					t.Fatalf("failures out of seed order: %d before %d", serial.failures[i-1].Seed, serial.failures[i].Seed)
				}
			}
			if !reflect.DeepEqual(serial.failures, pooled.failures) {
				t.Fatalf("width 4 recorded\n%+v\nwidth 1 recorded\n%+v", pooled.failures, serial.failures)
			}
		})
	}
}
