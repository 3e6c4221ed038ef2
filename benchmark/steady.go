package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steady runs one workload in --runs child processes with seeds 1, 2,
// ..., the way a comparison of two commits would, and prints for every
// end-to-end metric its median, its quartiles (as Python's
// statistics.quantiles(values, n=4) computes them), the quartile
// spread and the max/min spread as shares of the median, and the
// bound from BENCHMARK.json.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 5, "child processes to run")
	seconds := fs.Int("seconds", 15, "length of each run's timed phase")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := int64(i + 1)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs failed the checks", seed)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Fprintf(os.Stderr, "%s\n", lines[0])
	}
	fmt.Printf("%s: %d runs of %ds, failed/attempted %v\n", *name, *runs, *seconds, shares)
	fmt.Printf("%-20s %12s %12s %12s %8s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		v := values[k]
		med := median(v)
		q := pyQuartiles(v)
		flag := ""
		if b, ok := bounds[k]; ok && math.Abs(q[2]-q[0])/med > b/3 {
			flag = "  above bound/3"
		}
		fmt.Printf("%-20s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", k, med, q[0], q[2],
			math.Abs(q[2]-q[0])/med, (slices.Max(v)-slices.Min(v))/med, bounds[k], flag)
	}
	return nil
}

// pyQuartiles mirrors Python's statistics.quantiles(data, n=4) with
// its default exclusive method.
func pyQuartiles(x []float64) [3]float64 {
	d := slices.Clone(x)
	slices.Sort(d)
	var q [3]float64
	ld := len(d)
	if ld < 2 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
