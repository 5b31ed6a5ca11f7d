package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set (Linux /proc/self/clear_refs), so that peakRSS then
// reports the peak of what ran since. Where it fails peakRSS reports the
// process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the peak resident set in KiB (VmHWM), 0 if unknown.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}
