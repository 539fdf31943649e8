package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheckRuns is how many runs of each workload a set has.
const selfCheckRuns = 2

// selfCheck runs every workload as two sets of runs of this same
// binary, interleaved A B A B so that machine drift falls on both, and
// fails if the medians of the two sets differ by more than a metric's
// bound in either direction: the benchmark disagreeing with itself by
// more than it allows a change to cost.
func selfCheck(seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] is that set's readings.
	values := map[string]map[string][2][]float64{}
	for round := 0; round < 2*selfCheckRuns; round++ {
		for _, wl := range workloadNames {
			res, err := runChild(self, wl, seed+int64(round), seconds)
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", wl, round, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s, run %d: %d of %d ops failed", wl, round, res.Failed, res.Attempted)
			}
			if values[wl] == nil {
				values[wl] = map[string][2][]float64{}
			}
			for name, mv := range res.Metrics {
				sets := values[wl][name]
				sets[round%2] = append(sets[round%2], mv.Value)
				values[wl][name] = sets
			}
		}
	}
	worst := 0.0
	failed := false
	fmt.Printf("%-18s %-20s %14s %14s %10s %7s\n", "workload", "metric", "median A", "median B", "deviation", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			sets := values[wl][d.name]
			a, b := median(sets[0]), median(sets[1])
			dev := math.Max(worsening(a, b, d.higher), worsening(b, a, d.higher))
			verdict := ""
			if dev > d.bound {
				verdict, failed = "  EXCEEDS BOUND", true
			}
			if d.name != "setup_s" {
				worst = math.Max(worst, dev/d.bound)
			}
			fmt.Printf("%-18s %-20s %14.4f %14.4f %9.2f%% %6.0f%%%s\n", wl, d.name, a, b, 100*dev, 100*d.bound, verdict)
		}
	}
	fmt.Printf("worst deviation as a share of its bound (setup_s aside): %.2f\n", worst)
	if failed {
		return fmt.Errorf("two sets of runs of the same code differ by more than a bound")
	}
	return nil
}

// runChild runs one workload in a child process and parses the last
// line of its output.
func runChild(self, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
