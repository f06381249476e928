package main

// Machine-speed calibration. On a shared VM the whole guest runs up to
// ~25% faster or slower from one minute to the next (see README, "Speed
// calibration"). The timed end-to-end metrics are therefore reported at
// reference speed: the raw value scaled by how fast a fixed kernel ran
// next to the measured work. The kernels use only the standard library,
// so no change to the partitioner or the daemons can move them. The
// compute workloads are scaled by a sort loop, which follows them; the
// fleet, which is made of wake-ups, loopback TCP and syscalls more than
// of computation, by HTTP round trips to another process, which follow
// it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"
)

// The kernels' times on the reference machine (2-vCPU KVM guest, Intel
// Xeon family 6 model 207, Go 1.24) in a typical minute. They fix the
// unit only; any constants would do, as long as they stay put.
const (
	sortRefMS     = 25.0
	loopbackRefMS = 1.5
)

// calShare is the share of measured time spent calibrating.
const calShare = 10

// calibrator times a fixed kernel next to the measured work. A nil
// *calibrator does nothing.
type calibrator struct {
	kernel  func() error
	refMS   float64
	release func() error // frees the kernel's resources
	start   time.Time
	spent   time.Duration // time inside the kernel
	samples []float64     // ms per kernel run
	err     error         // the first kernel error
}

// newSortCalibrator times copying 2^18 shuffled ints and sorting them.
func newSortCalibrator() *calibrator {
	base := rand.New(rand.NewSource(1)).Perm(1 << 18)
	buf := make([]int, len(base))
	kernel := func() error {
		copy(buf, base)
		sort.Ints(buf)
		return nil
	}
	return &calibrator{kernel: kernel, refMS: sortRefMS, release: func() error { return nil }, start: time.Now()}
}

// echoEnv set to 1 makes a re-executed hgbench serve the loopback
// kernel's echo endpoint instead of benchmarking.
const echoEnv = "HGBENCH_ECHO"

// serveEcho answers every request by reading its body and writing 2
// bytes, until the process is signalled. It prints its address the way
// the daemons do.
func serveEcho(stdout io.Writer) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgbench echo:", err)
		return 1
	}
	fmt.Fprintf(stdout, "hgbench echo: listening on %s\n", ln.Addr())
	err = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte("ok"))
	}))
	fmt.Fprintln(os.Stderr, "hgbench echo:", err)
	return 1
}

// newLoopbackCalibrator times 20 POSTs of a 1-KiB body, over one
// keep-alive connection, to the echo endpoint of a re-executed hgbench:
// a round trip between two processes, as every hop of the fleet is. An
// echo server inside this process tracked the fleet less well, since a
// round trip between goroutines need not wake another process.
func newLoopbackCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	echo, err := startDaemon(self, []string{echoEnv + "=1"})
	if err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tp, Timeout: 10 * time.Second}
	url := "http://" + echo.addr + "/"
	body := make([]byte, 1024)
	kernel := func() error {
		for i := 0; i < 20; i++ {
			resp, err := hc.Post(url, "text/plain", bytes.NewReader(body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	release := func() error {
		tp.CloseIdleConnections()
		_, err := echo.stop()
		return err
	}
	return &calibrator{kernel: kernel, refMS: loopbackRefMS, release: release, start: time.Now()}, nil
}

// close releases the kernel's resources and returns the first error a
// kernel run met.
func (c *calibrator) close() error {
	if c == nil {
		return nil
	}
	return errors.Join(c.err, c.release())
}

// sample runs the kernel once.
func (c *calibrator) sample() {
	t0 := time.Now()
	err := c.kernel()
	d := time.Since(t0)
	c.spent += d
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.samples = append(c.samples, ms(d))
}

// keepUp runs the kernel until it has taken 1/calShare of the time
// since the calibrator started.
func (c *calibrator) keepUp() {
	if c == nil {
		return
	}
	for c.spent*calShare < time.Since(c.start) {
		c.sample()
	}
}

// factor is the run's speed relative to the reference: a time measured
// next to the kernel, times factor, is the time at reference speed.
func (c *calibrator) factor() float64 { return c.refMS / median(c.samples) }

// apply scales the metrics of the measured work to reference speed and
// notes the factor and the raw values.
func (c *calibrator) apply(values map[string]float64, notes map[string]string) {
	f := c.factor()
	notes["speed_factor"] = fmt.Sprintf("%.4f = %g ms reference / %.4f ms kernel median of %d; raw p50 gmean %.4f ms, p90 %.4f ms, %.4f op/s",
		f, c.refMS, median(c.samples), len(c.samples), values["latency_ms_p50_gmean"], values["latency_ms_p90"], values["ops_per_s"])
	atReferenceSpeed(values, f)
}

// atReferenceSpeed scales the metrics of the measured work by factor:
// times are multiplied, rates divided.
func atReferenceSpeed(values map[string]float64, factor float64) {
	values["latency_ms_p50_gmean"] *= factor
	values["latency_ms_p90"] *= factor
	values["ops_per_s"] /= factor
}

// setupTimer times the repetitions of a set-up. Each one starts after a
// forced GC, so it starts from the same heap, and is followed by one
// sort-kernel run, so it is scaled by the machine's speed at that
// moment.
type setupTimer struct {
	times []float64 // seconds
	cal   *calibrator
}

func newSetupTimer() *setupTimer { return &setupTimer{cal: newSortCalibrator()} }

func (s *setupTimer) time(setUp func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := setUp()
	s.times = append(s.times, time.Since(t0).Seconds())
	s.cal.sample()
	return err
}

// seconds is the median set-up time at reference speed, with a note.
func (s *setupTimer) seconds(what string) (float64, string) {
	raw, f := median(s.times), s.cal.factor()
	return raw * f, fmt.Sprintf("median of %d: %s; raw %.5f s x speed factor %.4f", len(s.times), what, raw, f)
}
