package bench

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
)

// TestConfigEdgeValuesNeverPanic sets every int field of the Base and RLPV
// defaults (1 SM) to 0 and to -1 in turn. Each such config must either fail
// config.Validate or build a GPU that runs DW to an answer or an error:
// wirserve builds GPUs from client JSON on job worker goroutines, where a
// panic ends the daemon.
func TestConfigEdgeValuesNeverPanic(t *testing.T) {
	b, err := ByAbbr("DW")
	if err != nil {
		t.Fatal(err)
	}
	intType := reflect.TypeOf(0)
	for _, m := range []config.Model{config.Base, config.RLPV} {
		typ := reflect.TypeOf(config.Config{})
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Type != intType {
				continue
			}
			for _, v := range []int64{0, -1} {
				cfg := config.Default(m)
				cfg.NumSMs = 1
				reflect.ValueOf(&cfg).Elem().Field(i).SetInt(v)
				if p := runGuarded(b, cfg); p != nil {
					t.Errorf("%v %s=%d panics: %v", m, f.Name, v, p)
				}
			}
		}
	}
}

// runGuarded validates cfg and, if it passes, builds a GPU from it and runs
// b on it. It returns any panic on the way.
func runGuarded(b *Benchmark, cfg config.Config) (p any) {
	defer func() {
		if r := recover(); r != nil {
			p = fmt.Sprint(r)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return nil
	}
	g, err := gpu.New(cfg)
	if err != nil {
		return nil
	}
	w, err := b.Setup(g)
	if err != nil {
		return nil
	}
	w.Run(g)
	return nil
}
