package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// mainStart is taken when package main initialises; preMain is what the
// process had already spent by then (runtime start-up and the init of
// every imported package), read from /proc so that work moved into an
// init function still lands in setup_s.
var (
	mainStart = time.Now()
	preMain   = preMainTime()
)

// preMainTime is the process's age at mainStart to the kernel's 10 ms
// tick, or 0 where /proc does not say.
func preMainTime() time.Duration {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	up, err := os.ReadFile("/proc/uptime")
	if err != nil {
		return 0
	}
	// Field 22 (starttime, in ticks since boot) counted after the
	// parenthesised command name, which may itself contain spaces.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := bytes.Fields(rest)
	if len(fields) < 20 {
		return 0
	}
	ticks, err := strconv.ParseFloat(string(fields[19]), 64)
	if err != nil {
		return 0
	}
	upFields := bytes.Fields(up)
	if len(upFields) == 0 {
		return 0
	}
	uptime, err := strconv.ParseFloat(string(upFields[0]), 64)
	if err != nil {
		return 0
	}
	const userHz = 100 // USER_HZ is 100 on every Linux port Go supports
	age := uptime - ticks/userHz
	if age < 0 {
		return 0
	}
	return time.Duration(age * float64(time.Second))
}

// sinceProcessStart is the setup_s clock.
func sinceProcessStart() time.Duration { return preMain + time.Since(mainStart) }

// repStat is what one timed window measured.
type repStat struct {
	ops       int
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcCPU     float64 // seconds
	heapInuse uint64
}

// meter measures the timed window of each rep. A workload calls start
// when its rep's untimed preparation is done and stop when the last
// operation has returned; everything between the two is what
// ops_per_s, allocs_per_op and alloc_bytes_per_op count.
type meter struct {
	reps []repStat

	t0     time.Time
	cpu0   time.Duration
	mem0   runtime.MemStats
	gcCPU0 float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.mem0)
	m.gcCPU0 = gcCPUSeconds()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop(ops int) {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	gcCPU := gcCPUSeconds() - m.gcCPU0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.reps = append(m.reps, repStat{
		ops:       ops,
		wall:      wall,
		cpu:       cpu,
		mallocs:   mem.Mallocs - m.mem0.Mallocs,
		bytes:     mem.TotalAlloc - m.mem0.TotalAlloc,
		gcCycles:  mem.NumGC - m.mem0.NumGC,
		gcCPU:     gcCPU,
		heapInuse: mem.HeapInuse,
	})
}

// opsPerSecond is each rep's throughput.
func opsPerSecond(reps []repStat) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = float64(r.ops) / r.wall.Seconds()
	}
	return out
}

// peakRSSMB is VmHWM from /proc/self/status, 0 where unavailable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibrate runs a fixed sha256 loop on every P at once and returns the
// slowest P's wall time in ms. It is printed beside the per-layer
// metrics so a reader can tell a slow run from a slow machine; nothing
// is ever normalised by it.
func calibrate() float64 {
	const rounds = 110_000 // 80 to 200 ms on the reference box, by its mood
	procs := runtime.GOMAXPROCS(0)
	walls := make([]time.Duration, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			var block [1024]byte
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				sum := sha256.Sum256(block[:])
				copy(block[:], sum[:])
			}
			walls[p] = time.Since(t0)
		}(p)
	}
	wg.Wait()
	slowest := walls[0]
	for _, w := range walls[1:] {
		if w > slowest {
			slowest = w
		}
	}
	return float64(slowest) / float64(time.Millisecond)
}
