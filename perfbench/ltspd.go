package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Ltspd is a running ltspd process on loopback.
type Ltspd struct {
	URL     string
	DataDir string
	cmd     *exec.Cmd
	exited  chan error
	log     *os.File
}

// serveCacheEntries is ltspd's memory artifact-cache capacity, smaller
// than the hot key population so that part of the hot traffic falls
// through to the disk store.
const serveCacheEntries = 128

// StartLtspd starts bin with two workers, a memory cache smaller than the
// hot key population and a fresh data directory under workDir, and waits
// until it answers /healthz. Span sampling is off, so only requests that
// carry an X-Trace-ID are traced, and the trace ring keeps every one of
// them until the benchmark reads it.
func StartLtspd(ctx context.Context, bin, workDir string) (*Ltspd, error) {
	dir, err := os.MkdirTemp(workDir, "ltspd-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "ltspd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	data := filepath.Join(dir, "data")
	cmd := exec.Command(bin,
		"-addr", addr, "-pool", "2", "-cache", strconv.Itoa(serveCacheEntries),
		"-data-dir", data, "-trace-sample", "-1", "-trace-ring", "65536",
		"-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start ltspd: %w", err)
	}
	d := &Ltspd{URL: "http://" + addr, DataDir: dir, cmd: cmd, exited: make(chan error, 1), log: logf}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.Stop()
			return nil, fmt.Errorf("ltspd exited during start-up: %v (log in %s)", err, logf.Name())
		case <-ctx.Done():
			d.Stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("ltspd not ready after 30s")
		}
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Pid returns the process ID.
func (d *Ltspd) Pid() int { return d.cmd.Process.Pid }

// Stop asks ltspd to drain and exit, kills it if it has not after ten
// seconds, waits for it and removes its data directory.
func (d *Ltspd) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	_ = os.RemoveAll(d.DataDir)
}

// serverMetrics is the subset of ltspd's JSON /metrics the benchmark
// reads.
type serverMetrics struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DiskHits    int64 `json:"disk_hits"`
	DiskMisses  int64 `json:"disk_misses"`
	Shed        int64 `json:"shed"`
	Timeouts    int64 `json:"timeouts"`
}

// Metrics scrapes /metrics.
func (d *Ltspd) Metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(d.URL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (m serverMetrics) sub(o serverMetrics) serverMetrics {
	return serverMetrics{
		CacheHits: m.CacheHits - o.CacheHits, CacheMisses: m.CacheMisses - o.CacheMisses,
		DiskHits: m.DiskHits - o.DiskHits, DiskMisses: m.DiskMisses - o.DiskMisses,
		Shed: m.Shed - o.Shed, Timeouts: m.Timeouts - o.Timeouts,
	}
}
