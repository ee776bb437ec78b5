package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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

// child is one secreta-serve process started from the built binary.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string // "" when memory-only
	log     *bytes.Buffer
	done    chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches bin with the workload's flags and, when dataDir is
// set, a fresh durable data directory. It returns once /healthz answers
// ready.
func startChild(bin string, flags []string, dataDir string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, flags...)
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	c := &child{base: fmt.Sprintf("http://127.0.0.1:%d", port), dataDir: dataDir, log: new(bytes.Buffer), done: make(chan error, 1)}
	c.cmd = exec.Command(bin, args...)
	// The server dies with the benchmark even if the benchmark is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { c.done <- c.cmd.Wait() }()
	if err := c.waitReady(10 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-c.done:
			c.done <- err
			return fmt.Errorf("secreta-serve exited during start-up: %v\n%s", err, c.log.String())
		default:
		}
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			var h struct {
				Ready bool `json:"ready"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Ready {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("secreta-serve not ready within %v\n%s", limit, c.log.String())
}

// stop interrupts the server (graceful drain) and waits for it to exit,
// killing it if the drain overruns.
func (c *child) stop() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGCONT) // in case it is paused
	_ = c.cmd.Process.Signal(os.Interrupt)    // the process may already be gone
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill() // Wait below reaps it
		<-c.done
	}
	c.cmd.Process = nil
}

// pause stops the child with SIGSTOP, or continues it with SIGCONT.
func (c *child) pause(stopped bool) {
	sig := syscall.SIGCONT
	if stopped {
		sig = syscall.SIGSTOP
	}
	_ = c.cmd.Process.Signal(sig)
}

// cpuSeconds reads utime+stime of the child from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 by the Linux ABI on every
// architecture Go supports.
const clockTicks = 100

// peakRSSMB reads VmHWM (peak resident set) of the child in MiB.
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir ("" for a
// memory-only server: 0).
func dirBytes(dir string) (int64, error) {
	var total int64
	if dir == "" {
		return 0, nil
	}
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a file removed mid-walk (atomic rename debris)
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}
