package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is the service workload's system under test: two verifasd
// replicas sharing one result-store directory, behind a verifas-router.
type fleet struct {
	router   string            // base URL the load goes to
	replicas []string          // replica base URLs, for stats
	byNode   map[string]string // replica base URL by node id, for direct requests
	debug    []string          // replica debug-server base URLs (traced runs only)
	procs    []*exec.Cmd
	log      *os.File
}

const replicaCount = 2

// memoryTierEntries sizes each replica's memory tier (-cache) at about half
// of the ~260 keys each replica owns, so that, under uniform key draws,
// the disk tier serves a large share of the hits.
const memoryTierEntries = 128

// startFleet boots the fleet from the binaries in binDir, with a fresh
// store under dir, and returns once the router reports every replica ready.
// With debug, each replica also serves pprof and expvar.
func startFleet(ctx context.Context, binDir, dir string, debug bool) (_ *fleet, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "fleet.log"))
	if err != nil {
		return nil, err
	}
	f := &fleet{log: logf, byNode: map[string]string{}}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	var addrs []string
	for i := 1; i <= replicaCount; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		node := fmt.Sprintf("r%d", i)
		args := []string{"-addr", addr, "-workers", "1", "-node", node,
			"-store-dir", filepath.Join(dir, "store"), "-cache", strconv.Itoa(memoryTierEntries)}
		if debug {
			dbg, err := freeAddr()
			if err != nil {
				return nil, err
			}
			args = append(args, "-debug-addr", dbg)
			f.debug = append(f.debug, "http://"+dbg)
		}
		if err := f.spawn(ctx, filepath.Join(binDir, "verifasd"), args...); err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
		f.replicas = append(f.replicas, "http://"+addr)
		f.byNode[node] = "http://" + addr
	}
	for _, r := range f.replicas {
		if err := waitReady(ctx, r, 0); err != nil {
			return nil, err
		}
	}
	raddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := f.spawn(ctx, filepath.Join(binDir, "verifas-router"), "-addr", raddr, "-replicas", strings.Join(addrs, ",")); err != nil {
		return nil, err
	}
	f.router = "http://" + raddr
	if err := waitReady(ctx, f.router, replicaCount); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fleet) spawn(ctx context.Context, bin string, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = f.log, f.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

// stop terminates the router and the replicas gracefully, kills any that
// do not exit in time, and waits for every one of them.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		_ = f.procs[i].Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		done := make(chan struct{})
		go func() {
			_ = p.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	f.procs = nil
	f.log.Close()
}

// freeAddr picks a loopback port that is free at the time of the call.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls base/readyz until it answers 200 and, for a router,
// reports wantReplicas ready replicas.
func waitReady(ctx context.Context, base string, wantReplicas int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var body struct {
			ReadyReplicas int `json:"ready_replicas"`
		}
		status, err := getJSON(ctx, base+"/readyz", &body)
		if err == nil && status == http.StatusOK && body.ReadyReplicas >= wantReplicas {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (status %d, err %v)", base, status, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func getJSON(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil && !errors.Is(err, io.EOF) {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// replicaVars is the part of a replica's /debug/vars the traced run reads.
type replicaVars struct {
	Memstats struct {
		Mallocs    uint64 `json:"Mallocs"`
		TotalAlloc uint64 `json:"TotalAlloc"`
	} `json:"memstats"`
	Verifier struct {
		PhaseMillis map[string]int64 `json:"phase_millis"`
	} `json:"verifasd"`
}

// vars sums the replicas' allocation counters and phase wall times.
func (f *fleet) vars(ctx context.Context) (replicaVars, error) {
	var sum replicaVars
	sum.Verifier.PhaseMillis = map[string]int64{}
	for _, d := range f.debug {
		var v replicaVars
		if _, err := getJSON(ctx, d+"/debug/vars", &v); err != nil {
			return sum, fmt.Errorf("reading %s/debug/vars: %w", d, err)
		}
		sum.Memstats.Mallocs += v.Memstats.Mallocs
		sum.Memstats.TotalAlloc += v.Memstats.TotalAlloc
		for k, ms := range v.Verifier.PhaseMillis {
			sum.Verifier.PhaseMillis[k] += ms
		}
	}
	return sum, nil
}

// profile fetches a CPU profile of the given length from every replica
// and merges them.
func (f *fleet) profile(ctx context.Context, seconds int) (*cpuProfile, error) {
	merged := &cpuProfile{}
	type got struct {
		p   *cpuProfile
		err error
	}
	ch := make(chan got, len(f.debug))
	for _, d := range f.debug {
		go func() {
			p, err := fetchProfile(ctx, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d, seconds))
			ch <- got{p, err}
		}()
	}
	var firstErr error
	for range f.debug {
		g := <-ch
		if g.err != nil && firstErr == nil {
			firstErr = g.err
		}
		if g.p != nil {
			merged.merge(g.p)
		}
	}
	return merged, firstErr
}

func fetchProfile(ctx context.Context, url string) (*cpuProfile, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return parseProfile(b)
}
