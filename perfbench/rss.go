package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssWindow is how often the peak-RSS sampler reads and resets the
// kernel's high-water mark.
const rssWindow = 500 * time.Millisecond

// rssSampler records the peak resident set of the process in
// consecutive windows of a phase. Linux keeps a high-water mark (VmHWM)
// that writing "5" to /proc/self/clear_refs resets; the sampler reads
// and resets it every rssWindow. The median window peak is what the
// phase typically holds resident at its peak; the maximum also depends
// on where one GC cycle happens to fall.
type rssSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64
}

// startRSS returns garbage to the OS and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{})}
	resetHWM()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if mb := hwmMB(); mb > 0 {
		s.peaks = append(s.peaks, mb)
	}
	resetHWM()
}

// finish stops sampling and returns the median and maximum window peak
// in MiB (0 where /proc is unavailable).
func (s *rssSampler) finish() (med, max float64) {
	close(s.stop)
	s.done.Wait()
	for _, p := range s.peaks {
		if p > max {
			max = p
		}
	}
	return median(s.peaks), max
}

// resetHWM restarts the high-water mark. Where the kernel refuses, the
// error is dropped: each window then reports the peak so far, which
// still bounds the phase's peak from above.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// hwmMB reads VmHWM from /proc/self/status in MiB.
func hwmMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
