// Command perfbench is the repository's benchmark: it runs one named
// workload of the whole profit-mining loop — offline build, seal and
// load, open-loop serving with customer outcomes, a rate ladder, and
// windowed delta refreshes — in one process, checks that every output
// is correct, and prints its metrics. See README.md.
//
//	perfbench --workload serve_steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 spans are recorded
// around every layer call, written to .bench_build/trace/, and the
// metrics are the per-layer ones. A failed correctness check prints
// correct=false and exits 1; a run that cannot complete prints no
// result and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: serve_steady or serve_drift")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	secs := flag.Int("seconds", 20, "seconds of timed traffic")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve_steady|serve_drift, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}

	res, err := runWorkload(*w, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	metrics := res.end2end
	if *trace == 1 {
		metrics = res.perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		res.note("%d spans written to %s", len(res.spans), path)
	}
	for _, k := range sortedKeys(metrics) {
		if v := metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			res.check(false, "metric %s has no value (%v)", k, v)
			metrics[k] = metric{0, metrics[k].Unit}
		}
	}

	for _, line := range res.summary {
		fmt.Println(line)
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
