package load

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Cloud is a cloudserver child process hosting Shards nodes on consecutive
// loopback ports, plus its expvar endpoint.
type Cloud struct {
	Addrs   []string
	DataDir string

	bin, policy string
	base        int // first shard port; base+Shards serves /debug/vars
	cmd         *exec.Cmd
	exited      chan struct{} // closed once cmd has been waited for
	log         *os.File
}

// StartCloud spawns bin on free consecutive ports, persisting under dataDir
// with the given fsync policy, and returns once every shard accepts
// connections. The child's log goes to dataDir + ".log".
func StartCloud(bin, dataDir, policy string) (*Cloud, error) {
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	c := &Cloud{DataDir: dataDir, bin: bin, policy: policy, log: logf}
	// cloudserver -shards needs an explicit base port. Another process can
	// take a probed port before the child binds it, so a failed start retries
	// on a fresh range.
	for attempt := 0; attempt < 5; attempt++ {
		if c.base, err = freePorts(Shards + 1); err != nil {
			break
		}
		if _, err = c.spawn(); err == nil {
			return c, nil
		}
	}
	logf.Close()
	return nil, fmt.Errorf("starting %s: %w", bin, err)
}

// freePorts finds n consecutive loopback ports that can be bound right now.
func freePorts(n int) (int, error) {
	for attempt := 0; attempt < 50; attempt++ {
		first, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := first.Addr().(*net.TCPAddr).Port
		held := []net.Listener{first}
		for i := 1; i < n && base+n < 65536; i++ {
			ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(base+i)))
			if err != nil {
				break
			}
			held = append(held, ln)
		}
		for _, ln := range held {
			ln.Close()
		}
		if len(held) == n {
			return base, nil
		}
	}
	return 0, errors.New("no free consecutive ports")
}

// spawn starts the child on c.base and waits until every shard accepts,
// returning how long that took: on a data directory with history this is
// the recovery time.
func (c *Cloud) spawn() (time.Duration, error) {
	addr := func(i int) string { return net.JoinHostPort("127.0.0.1", strconv.Itoa(c.base+i)) }
	c.Addrs = nil
	for i := 0; i < Shards; i++ {
		c.Addrs = append(c.Addrs, addr(i))
	}
	c.cmd = exec.Command(c.bin, "-listen", addr(0), "-shards", strconv.Itoa(Shards),
		"-data", c.DataDir, "-fsync", c.policy, "-pprof", addr(Shards))
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	// The child must not outlive a harness that dies without cleaning up.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return 0, err
	}
	cmd, exited := c.cmd, make(chan struct{})
	c.exited = exited
	go func() { cmd.Wait(); close(exited) }() //nolint:errcheck // exit status is not used
	for i := 0; i < Shards; {
		conn, err := net.DialTimeout("tcp", c.Addrs[i], time.Second)
		if err == nil {
			conn.Close()
			i++
			continue
		}
		select {
		case <-exited:
			return 0, fmt.Errorf("cloudserver exited during start-up, see %s", c.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			c.Kill()
			return 0, errors.New("cloudserver did not accept connections within 60s")
		}
	}
	return time.Since(start), nil
}

func (c *Cloud) signalAndWait(sig syscall.Signal) {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Signal(sig) //nolint:errcheck // already exited is fine
	<-c.exited
	c.cmd = nil
}

// Kill sends SIGKILL and waits for the child to end.
func (c *Cloud) Kill() { c.signalAndWait(syscall.SIGKILL) }

// Stop sends SIGTERM (a clean close: final snapshots, WAL sync) and waits.
func (c *Cloud) Stop() { c.signalAndWait(syscall.SIGTERM) }

// Restart starts a new child on the same ports and data directory and
// returns how long it took to accept connections again.
func (c *Cloud) Restart() (time.Duration, error) { return c.spawn() }

// Close ends the child if it still runs and closes its log.
func (c *Cloud) Close() {
	c.Kill()
	c.log.Close()
}

// CPU is the child's user plus system CPU time so far, from /proc.
func (c *Cloud) CPU() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 10 ms.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line %q", raw)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// PeakRSSMB is the child's resident-set high-water mark, from /proc.
func (c *Cloud) PeakRSSMB() (float64, error) {
	return PeakRSSMB(c.cmd.Process.Pid)
}

// PeakRSSMB reads VmHWM of a process.
func PeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Vars fetches one published variable of the child's /debug/vars into v.
func (c *Cloud) Vars(name string, v any) error {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/debug/vars", c.base+Shards))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(body, &all); err != nil {
		return err
	}
	raw, ok := all[name]
	if !ok {
		return fmt.Errorf("child publishes no %q", name)
	}
	return json.Unmarshal(raw, v)
}

// StoredBytes sums the sizes of the regular files under the data directory.
func (c *Cloud) StoredBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(c.DataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// SelfCPU is this process's user plus system CPU time so far.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
