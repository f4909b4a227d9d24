package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// bounds is the part of BENCHMARK.json that -repeat reads.
type bounds struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloor is the absolute part of setup_s's bound, max(bound, 50 ms),
// which the relative bounds of BENCHMARK.json cannot state.
const setupFloor = 0.050

// runRepeat runs the same end-to-end measurement twice, each set in a
// fresh process with its own output directory, and prints how far apart
// the two values of each metric are, as a share of the first, next to the
// metric's bound. It fails if a set fails or any spread exceeds its bound.
func runRepeat(ctx context.Context, out string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var b bounds
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "out" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	var sets [2]result
	for i := range sets {
		dir := filepath.Join(out, fmt.Sprintf("repeat-%d", i+1))
		cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-out="+dir)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: set %d: %v\n", i+1, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &sets[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench: set %d: %v\n", i+1, err)
			return 1
		}
	}
	exit := 0
	fmt.Printf("%-20s %14s %14s %8s %8s\n", "metric", "set 1", "set 2", "spread", "bound")
	for _, m := range b.EndToEnd {
		a, c := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
		spread := math.Abs(c-a) / a
		bound := m.Bound
		if m.Name == "setup_s" {
			bound = max(bound, setupFloor/a)
		}
		verdict := "ok"
		if !(spread <= bound) {
			verdict = "EXCEEDS"
			exit = 1
		}
		fmt.Printf("%-20s %14.6g %14.6g %7.2f%% %7.2f%% %s\n", m.Name, a, c, spread*100, bound*100, verdict)
	}
	return exit
}
