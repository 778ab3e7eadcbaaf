package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"breakhammer/internal/dram.(*Device).NextRelease":       "breakhammer/internal/dram",
		"breakhammer/internal/sim.(*System).runSkipAhead.func1": "breakhammer/internal/sim",
		"runtime.mallocgc":                                         "runtime",
		"encoding/json.(*encodeState).reflectValue":                "encoding/json",
		"breakhammer/internal/serve.paginate[go.shape.struct { }]": "breakhammer/internal/serve",
		"main.main":              "main",
		"net/http.(*conn).serve": "net/http",
		"breakhammer/internal/memctrl.(*readySet).pick":             "breakhammer/internal/memctrl",
		"breakhammer/perfbench.replayDRAM":                          "breakhammer/perfbench",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).readString": "vendor/golang.org/x/net/http2/hpack",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf("breakhammer/internal/dram"); got != "dram" {
		t.Errorf("layerOf(dram) = %q", got)
	}
	if got := layerOf("encoding/json"); got != "encoding/json" {
		t.Errorf("layerOf(encoding/json) = %q", got)
	}
}

func TestFoldProfile(t *testing.T) {
	samples := []profSample{
		{stack: []string{"breakhammer/internal/dram.(*Device).NextRelease", "breakhammer/internal/sim.(*System).Run"}, weight: 30},
		{stack: []string{"breakhammer/internal/sim.(*System).tickAll", "main.main"}, weight: 10},
		{stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, weight: 40},
		{stack: []string{"encoding/json.Marshal", "main.main"}, weight: 20},
	}
	got := foldProfile(samples)
	want := map[string]float64{"dram": 30, "sim": 10, "runtime": 40, "encoding/json": 20, "runtime_gc": 40}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("fold has keys %v, want exactly %v", got, want)
	}
	if got := foldProfile(nil); got["runtime_gc"] != 0 {
		t.Errorf("empty profile folded to %v", got)
	}
}

// spin burns CPU in a named function so a real profile has a known leaf.
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

var sink float64

func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples recorded (CPU too contended to sample)")
	}
	spinPkg := ""
	for _, s := range samples {
		if s.weight <= 0 || len(s.stack) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spinPkg = packageOf(fn)
			}
		}
	}
	if spinPkg == "" {
		t.Fatalf("no sample has the spinning function on its stack")
	}
	fold := foldProfile(samples)
	if fold[layerOf(spinPkg)] < 50 {
		t.Errorf("the spinning package %s has under half the self time: %v", spinPkg, fold)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Errorf("decodeProfile accepted garbage")
	}
}
