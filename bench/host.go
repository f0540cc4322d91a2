package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// host records what a result was measured on. Results compare only within
// one host class.
type host struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OSArch     string `json:"osArch"`
	CPUModel   string `json:"cpuModel"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func currentHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	// A source checkout without git history has no commit to record.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// class names the hardware and toolchain a result belongs to; the kernel and
// the commit may differ between comparable results.
func (h host) class() string {
	return fmt.Sprintf("%s cpus=%d gomaxprocs=%d %q %s", h.OSArch, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion)
}

// procRSS returns the resident set size of a process in MiB, from the VmRSS
// line of /proc/<pid>/status, or NaN when unreadable.
func procRSS(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// The host this benchmark runs on is shared: over minutes its speed drifts
// by 15% and more, the same for every workload, which would swamp the
// regressions the bounds are meant to catch. Every run therefore times a
// fixed reference kernel next to its measurements and reports its times
// scaled to the speed at which the kernel takes refNominal. Over two
// minutes of a drifting host, one fleet-backlog sample's median per five
// seconds ranged from 86 to 120 ms while its ratio to the kernel stayed
// within 26.3 to 29.8.

// refNominal is the reference kernel's time at host speed 1, about its
// median on the two-core host the benchmark was sized on.
const refNominal = 3.5 * float64(time.Millisecond)

// refKernel is the reference work, run at once on as many cores as one
// operation of the workload runs in lockstep: fleet-replay's two workers meet
// at a barrier every window, so the slower core sets its pace, while a
// request to the server runs on one core. (Timing serve-mix against two
// lanes tripled its run-to-run spread.) Each lane does random
// read-modify-writes over 4 MiB and sorts 16k floats, fixed inputs. Its
// memory is mapped outside the Go heap, so the kernel neither delays the
// measured program's collections nor counts in its heap, and it shares no
// code with the program, so no change to the program can move it.
type refKernel struct {
	lanes []*refLane
	times []float64 // nanoseconds of each timed run
}

type refLane struct {
	mem     []byte // anonymous mapping holding buf, in and tmp
	buf     []uint64
	in, tmp []float64
	sink    uint64
}

const (
	refWords  = 1 << 19 // 4 MiB of uint64
	refFloats = 1 << 14
	laneBytes = 8 * (refWords + 2*refFloats)
)

func newRefKernel(lanes int) (*refKernel, error) {
	k := &refKernel{times: make([]float64, 0, 1024)}
	for range lanes {
		mem, err := syscall.Mmap(-1, 0, laneBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			k.close()
			return nil, fmt.Errorf("mapping the reference kernel: %w", err)
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), laneBytes/8)
		floats := unsafe.Slice((*float64)(unsafe.Pointer(&words[refWords])), 2*refFloats)
		l := &refLane{mem: mem, buf: words[:refWords], in: floats[:refFloats], tmp: floats[refFloats:]}
		for i := range l.in {
			l.in[i] = math.Sin(float64(i) * 12.9898)
		}
		// Touch every page, so the whole mapping is resident from here on.
		clear(l.buf)
		copy(l.tmp, l.in)
		k.lanes = append(k.lanes, l)
	}
	return k, nil
}

// residentMiB is the memory the kernel keeps resident in this process.
func (k *refKernel) residentMiB() float64 {
	return float64(len(k.lanes)*laneBytes) / (1 << 20)
}

// close unmaps the kernel's memory.
func (k *refKernel) close() {
	for _, l := range k.lanes {
		_ = syscall.Munmap(l.mem)
	}
	k.lanes = nil
}

func (l *refLane) run() {
	x := uint64(88172645463325252)
	for range 1 << 18 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.buf[x&(refWords-1)] += x
	}
	copy(l.tmp, l.in)
	slices.Sort(l.tmp)
	l.sink += x + uint64(l.tmp[0])
}

// measure times one run of every lane at once.
func (k *refKernel) measure() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, l := range k.lanes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run()
		}()
	}
	k.lanes[0].run()
	wg.Wait()
	k.times = append(k.times, float64(time.Since(t0)))
}

// speed is the host's speed over the run: refNominal over the kernel's
// median time, above 1 on a faster host.
func (k *refKernel) speed() float64 { return refNominal / median(k.times) }

// atSpeed scales a measured value of the given unit to host speed 1: times
// shrink on a slow host's measurements, rates grow. Other units pass through.
func atSpeed(v float64, unit string, speed float64) float64 {
	switch unit {
	case "s", "ms", "ns/call", "ns/event", "ns/arrival":
		return v * speed
	case "tasks/s":
		return v / speed
	}
	return v
}
