// benchjson converts `go test -bench` output into a JSON benchmark
// record on stdout, stamped with the host's parallelism so a
// measurement can never be read without the context that produced it.
//
// With no arguments it reads one bench run from stdin; with file
// arguments it merges several runs (e.g. the scheduler grid and the
// sampling pair) into a single host-stamped report, in argument order.
//
// For every benchmark pair named .../scan-<k> and .../incr-<k> (the
// memory-controller scheduler grid: seed full-queue scan vs incremental
// ready-sets) it derives speedup_<k> = scan ns/op ÷ incr ns/op.
//
// Usage:
//
//	go test -bench Scheduler -run '^$' ./internal/memctrl | go run ./cmd/benchjson > BENCH_sched.json
//	go run ./cmd/benchjson sched.txt sample.txt > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document benchjson emits.
type Report struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Note       string             `json:"note,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

// benchLine matches one result line: name, iteration count, ns/op, and
// any trailing custom metrics ("123 cycles" pairs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	note := flag.String("note", "", "free-form context recorded in the report (host class, pinning, benchtime)")
	flag.Parse()

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
	}
	if files := flag.Args(); len(files) > 0 {
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			rep.Benchmarks = append(rep.Benchmarks, parseBench(f)...)
			f.Close()
		}
	} else {
		rep.Benchmarks = parseBench(os.Stdin)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines in input (run `go test -bench ...` and pipe or pass its output)")
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// parseBench extracts benchmark result lines from one `go test -bench`
// output stream.
func parseBench(r io.Reader) []Benchmark {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			log.Fatalf("iteration count %q: %v", m[2], err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			log.Fatalf("ns/op %q: %v", m[3], err)
		}
		out = append(out, Benchmark{
			Name:       m[1],
			Iterations: iters,
			NsPerOp:    ns,
			Metrics:    parseMetrics(m[4]),
		})
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}

// parseMetrics reads the "value unit" pairs go test appends after ns/op
// (custom b.ReportMetric metrics like "123456 cycles").
func parseMetrics(rest string) map[string]float64 {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil
	}
	metrics := make(map[string]float64)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return nil
	}
	return metrics
}

// deriveSpeedups pairs .../scan-<k> (full-queue-scan scheduler) with
// .../incr-<k> (incremental ready-set scheduler) results that share a
// key (the -<procs> suffix go test appends is ignored) and reports
// scan÷incr time ratios — above 1.0 the incremental scheduler won.
func deriveSpeedups(benchmarks []Benchmark) map[string]float64 {
	baseline := make(map[string]float64)
	optimised := make(map[string]float64)
	for _, b := range benchmarks {
		name := b.Name
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip go test's -<procs> suffix
			}
		}
		leaf := name[strings.LastIndex(name, "/")+1:]
		switch {
		case strings.HasPrefix(leaf, "scan-"):
			baseline[strings.TrimPrefix(leaf, "scan-")] = b.NsPerOp
		case strings.HasPrefix(leaf, "incr-"):
			optimised[strings.TrimPrefix(leaf, "incr-")] = b.NsPerOp
		}
	}
	speedups := make(map[string]float64)
	for key, s := range baseline {
		if p, ok := optimised[key]; ok && p > 0 {
			speedups["speedup_"+key] = s / p
		}
	}
	if len(speedups) == 0 {
		return nil
	}
	return speedups
}
