package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples collects named series of per-pass or per-job values; the
// reported figure of each series is its median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) medians() map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}

// cpuTime is the CPU time (user plus system, every thread) this process
// has used. Unlike wall time it leaves out the time the host takes the
// CPU away from the process, which on a shared virtual machine varies
// from second to second.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what one operation took, from call to verdict.
type cost struct {
	Wall, CPU time.Duration
}

// stopwatch measures a cost from its start.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

func (s stopwatch) read() cost {
	return cost{Wall: time.Since(s.wall), CPU: cpuTime() - s.cpu}
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// treeCPU is the CPU time process pid has used (utime and stime of
// /proc/<pid>/stat) and the CPU time of every child it has reaped
// (cutime and cstime).
func treeCPU(pid int) (self, children time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// f[0] is field 3 (state); utime..cstime are fields 14..17.
	if len(f) < 15 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks [4]int64
	for i, x := range f[11:15] {
		if ticks[i], err = strconv.ParseInt(x, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc/%d/stat: %v", pid, err)
		}
	}
	return time.Duration(ticks[0]+ticks[1]) * clockTick, time.Duration(ticks[2]+ticks[3]) * clockTick, nil
}
