package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on changes speed by up to 2.5x
// for minutes at a time: a fixed integer loop takes anywhere from 67 to
// 180 ms, with no steal time reported. A time measured on it says as
// much about the host as about the program. So every run also measures
// the speed of a fixed reference computation, before and after every
// timed stretch (each set-up, each sub-phase of the measured phase, the
// traced pass), and reports its times at the reference host's speed:
// multiplied by the host speed over that part of the run, the median
// of the measurements around its stretches. A median of four to six
// measurements follows the host from run to run; a single measurement
// is too noisy to correct one stretch on its own.
//
// A slow host state does not slow every resource alike, and the
// workloads lean on different ones: sweep-hot, for one, spends its
// time in goroutine wake-ups, loopback round trips and allocation
// rather than arithmetic. So the reference computation has one part
// per resource the workloads use: arithmetic, memory beyond the
// private caches (a dependent random walk, and a sequential scan),
// allocation, goroutine hand-off and a loopback TCP round trip. The
// host speed is the geometric mean of the parts' speeds, so no part's
// weight is tuned to a workload.
//
// The reference computation uses only the standard library and holds
// its working set from the start of the run, so no change to the
// repository's code can change its speed. The parts that can run in
// parallel run on GOMAXPROCS goroutines, like the workloads, so they
// see the share of the host the workloads see.

// calSamples is how many times each measurement times each part; the
// fastest timing counts. Other tenants only ever slow a timing down,
// so the fastest is the least disturbed.
const calSamples = 3

// calPart is one part of the reference computation: its size, in the
// part's own units, and its time at that size on the reference host.
// The reference host is 2 vCPUs of an Intel Xeon VM in its fast state,
// as the compute part measured it; the other parts' reference times
// make each read about the compute part's speed on that VM.
type calPart struct {
	name string
	ref  time.Duration
	size int
	// run does size units of the part once and returns the time taken.
	run func(c *calibrator, n int) (time.Duration, error)
}

var calParts = []calPart{
	{"compute", 6000 * time.Microsecond, 20, (*calibrator).compute},
	{"walk", 2500 * time.Microsecond, 60000, (*calibrator).walk},
	{"scan", 1250 * time.Microsecond, 4, (*calibrator).scan},
	{"alloc", 1700 * time.Microsecond, 50000, (*calibrator).alloc},
	{"handoff", 3400 * time.Microsecond, 10000, (*calibrator).handoff},
	{"loopback", 3500 * time.Microsecond, 500, (*calibrator).loopback},
}

// walkLen is the entries of each goroutine's random-walk cycle: 2 MiB,
// beyond a core's private caches.
const walkLen = 1 << 19

// calState is one goroutine's preallocated working set: 32 KiB of
// floats to sort, a 32 KiB hash table, 16 KiB to hash, a random cyclic
// permutation to walk and scan, and the alloc part's latest objects.
type calState struct {
	floats []float64
	table  []uint64
	buf    []byte
	mem    []byte // mapped memory holding cycle
	cycle  []uint32
	keep   [256][]byte
}

// newCalState builds one goroutine's working set. The cycle lives
// outside the Go heap, so that it neither raises the collector's heap
// target nor, through it, the workload's peak memory.
func newCalState(seed uint64) (*calState, error) {
	mem, err := syscall.Mmap(-1, 0, walkLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host speed working set: %w", err)
	}
	s := &calState{floats: make([]float64, 4096), table: make([]uint64, 4096), buf: make([]byte, 16<<10),
		mem: mem, cycle: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), walkLen)}
	// Sattolo's algorithm: one cycle through every entry, so a walk
	// never settles into a short loop that fits in cache.
	for i := range s.cycle {
		s.cycle[i] = uint32(i)
	}
	x := seed
	for i := len(s.cycle) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
	}
	return s, nil
}

// unit is one piece of the compute part: a sort, a hash-table fill, a
// SHA-256 and a floating-point loop over a pseudo-random state.
func (s *calState) unit(seed uint64) uint64 {
	x := seed*6364136223846793005 + 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := range s.floats {
		s.floats[i] = float64(next()>>11) / (1 << 53)
	}
	sort.Float64s(s.floats)
	clear(s.table)
	mask := uint64(len(s.table) - 1)
	for range len(s.table) / 2 {
		k := next() | 1
		for j := k & mask; ; j = (j + 1) & mask {
			if s.table[j] == 0 || s.table[j] == k {
				s.table[j] = k
				break
			}
		}
	}
	for i := range s.buf {
		s.buf[i] = byte(next() >> 56)
	}
	h := sha256.Sum256(s.buf)
	f := 0.0
	for i := range 4000 {
		f += math.Sqrt(s.floats[i]+1) * math.Exp(-s.floats[(i*7)&4095])
	}
	return uint64(h[0]) + uint64(f) + s.table[int(x&mask)]
}

// calibrator measures the host's speed.
type calibrator struct {
	states []*calState
	// div divides every part's size: 1, or more in toy runs, which
	// check only that the run completes.
	div  int
	sink uint64
	// speeds are every measurement taken, in order.
	speeds []float64

	// The loopback part's connection to an echo server in this process.
	ln   net.Listener
	conn net.Conn
	echo sync.WaitGroup
}

func newCalibrator(toy bool) (*calibrator, error) {
	c := &calibrator{div: 1}
	if toy {
		c.div = 100
	}
	for g := range runtime.GOMAXPROCS(0) {
		s, err := newCalState(uint64(g) + 1)
		if err != nil {
			c.unmap()
			return nil, err
		}
		c.states = append(c.states, s)
	}
	var err error
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		c.unmap()
		return nil, err
	}
	c.echo.Add(1)
	go func() {
		defer c.echo.Done()
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn)
	}()
	if c.conn, err = net.Dial("tcp", c.ln.Addr().String()); err != nil {
		c.ln.Close()
		c.echo.Wait()
		c.unmap()
		return nil, err
	}
	return c, nil
}

// close stops the echo server, waits for it to end and releases the
// working sets.
func (c *calibrator) close() {
	c.conn.Close()
	c.ln.Close()
	c.echo.Wait()
	c.unmap()
}

func (c *calibrator) unmap() {
	for _, s := range c.states {
		syscall.Munmap(s.mem)
	}
	c.states = nil
}

// measure records the host's current speed relative to the reference
// host: the geometric mean over the parts of the part's reference time
// over its fastest timing. A garbage collection first keeps one left
// over from the workload out of the timings, and one at the end keeps
// the alloc part's garbage out of the next timed stretch.
func (c *calibrator) measure() error {
	runtime.GC()
	defer runtime.GC()
	logSum := 0.0
	for _, p := range calParts {
		n := max(p.size/c.div, 1)
		best := time.Duration(math.MaxInt64)
		for range calSamples {
			d, err := p.run(c, n)
			if err != nil {
				return fmt.Errorf("host speed, %s part: %w", p.name, err)
			}
			best = min(best, d)
		}
		ref := p.ref.Seconds() * float64(n) / float64(p.size)
		logSum += math.Log(ref / best.Seconds())
	}
	c.speeds = append(c.speeds, math.Exp(logSum/float64(len(calParts))))
	return nil
}

// parallel runs f on every goroutine's state at once and returns the
// time until all are done.
func (c *calibrator) parallel(f func(g int, s *calState) uint64) (time.Duration, error) {
	sums := make([]uint64, len(c.states))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, s := range c.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = f(g, s)
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, v := range sums {
		c.sink += v
	}
	return d, nil
}

// compute runs n units of arithmetic on every goroutine.
func (c *calibrator) compute(n int) (time.Duration, error) {
	return c.parallel(func(g int, s *calState) uint64 {
		var sum uint64
		for u := range n {
			sum += s.unit(uint64(g*n + u))
		}
		return sum
	})
}

// walk takes n dependent steps along each goroutine's random cycle:
// one cache miss after another.
func (c *calibrator) walk(n int) (time.Duration, error) {
	return c.parallel(func(g int, s *calState) uint64 {
		p := uint32(g)
		for range n {
			p = s.cycle[p]
		}
		return uint64(p)
	})
}

// scan sums each goroutine's cycle n times in order.
func (c *calibrator) scan(n int) (time.Duration, error) {
	return c.parallel(func(g int, s *calState) uint64 {
		var sum uint64
		for range n {
			for _, v := range s.cycle {
				sum += uint64(v)
			}
		}
		return sum
	})
}

// alloc makes n short-lived objects of 16 to 72 bytes on every
// goroutine, each kept until 256 later ones replace it, so that they
// reach the heap; collections they cause count in its time. The
// objects are small so that their garbage does not raise the
// process's peak memory, which peak_rss_mb reports.
func (c *calibrator) alloc(n int) (time.Duration, error) {
	return c.parallel(func(g int, s *calState) uint64 {
		var sum uint64
		for i := range n {
			b := make([]byte, 16+(i%8)*8)
			b[0] = byte(i)
			s.keep[i%len(s.keep)] = b
			sum += uint64(b[0])
		}
		return sum
	})
}

// handoff passes a value back and forth between two goroutines n
// times over unbuffered channels: a wake-up each way.
func (c *calibrator) handoff(n int) (time.Duration, error) {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	t0 := time.Now()
	v := 0
	for range n {
		ping <- v
		v = <-pong
	}
	d := time.Since(t0)
	close(ping)
	<-pong
	c.sink += uint64(v)
	return d, nil
}

// loopback sends a 64-byte message to the echo server and reads it
// back, n times.
func (c *calibrator) loopback(n int) (time.Duration, error) {
	var buf [64]byte
	t0 := time.Now()
	for range n {
		if _, err := c.conn.Write(buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(c.conn, buf[:]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// taken is the number of measurements taken so far.
func (c *calibrator) taken() int { return len(c.speeds) }

// speed is the host speed over a part of the run: the median of the
// measurements from index from on.
func (c *calibrator) speed(from int) float64 { return median(sortedCopy(c.speeds[from:])) }
