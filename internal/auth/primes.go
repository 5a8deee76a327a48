package auth

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// --- deterministic randomness for reproducible experiments ---

// detStream is a SHA-256-based deterministic byte stream: byte i is byte
// i%32 of SHA-256(state ‖ le64(i/32)). It is not a CSPRNG for production
// use; it exists so experiment key generation is reproducible. Any range
// of it is a pure function of the seed and its offset, so prime
// candidates can be tested out of order and in parallel.
type detStream struct {
	state [32]byte
	off   uint64 // offset of the first unconsumed byte
}

func newDetStream(seed int64) *detStream {
	return &detStream{state: sha256.Sum256([]byte(fmt.Sprintf("provnet-det-seed-%d", seed)))}
}

// fill sets p to the stream bytes starting at offset off.
func (s *detStream) fill(p []byte, off uint64) {
	var block [40]byte
	copy(block[:32], s.state[:])
	for len(p) > 0 {
		binary.LittleEndian.PutUint64(block[32:], off/32)
		sum := sha256.Sum256(block[:])
		n := copy(p, sum[off%32:])
		p = p[n:]
		off += uint64(n)
	}
}

// --- sieve ---

// sieveMax is the largest prime the sieve divides by.
const sieveMax = 8191

// A sieveGroup is a run of consecutive odd primes whose product m fits
// in a machine word, so x mod m costs one pass over x's words.
type sieveGroup struct {
	m      uint
	primes []uint
}

// sieveGroups covers the odd primes up to sieveMax, smallest first, so
// most composites leave after the first groups.
var sieveGroups = buildSieve()

func buildSieve() []sieveGroup {
	composite := make([]bool, sieveMax+1)
	var groups []sieveGroup
	for q := uint(3); q <= sieveMax; q += 2 {
		if composite[q] {
			continue
		}
		for c := q * q; c <= sieveMax; c += 2 * q {
			composite[c] = true
		}
		last := len(groups) - 1
		if last >= 0 {
			if hi, m := bits.Mul(groups[last].m, q); hi == 0 {
				groups[last].m = m
				groups[last].primes = append(groups[last].primes, q)
				continue
			}
		}
		groups = append(groups, sieveGroup{m: q, primes: []uint{q}})
	}
	return groups
}

// sieved reports whether x survives trial division by the odd primes up
// to sieveMax: none of them divides x, or x is one of them. It does not
// allocate.
func sieved(x *big.Int) bool {
	w := x.Bits()
	for _, g := range sieveGroups {
		var r uint
		for i := len(w) - 1; i >= 0; i-- {
			r = bits.Rem(r, uint(w[i]), g.m)
		}
		for _, q := range g.primes {
			if r%q == 0 && !(len(w) == 1 && uint(w[0]) == q) {
				return false
			}
		}
	}
	return true
}

// --- prime scan ---

// scanChunk is the number of consecutive candidates a scan worker claims
// at a time.
const scanChunk = 16

// A primeScan hands out the primes of a deterministic stream in stream
// order. Candidate i of a b-bit scan is the ceil(b/8) stream bytes at
// base + i·ceil(b/8), with its top bits and low bit set; a candidate is
// accepted if it passes the sieve and ProbablyPrime(20).
// GOMAXPROCS workers test chunks of candidates ahead of the consumer,
// which takes primes strictly in index order, so the primes, and the
// stream offset after them, are those of a serial search.
type primeScan struct {
	stream *detStream
	bits   int    // prime size of the running scan; 0 if none runs
	size   int    // candidate length in bytes
	base   uint64 // stream offset of candidate 0
	used   int    // candidates consumed: one past the last prime handed out

	jobs    chan scanJob
	pending []scanJob // dispatched chunks, in index order
	next    int       // next chunk to dispatch
	hits    []scanHit // primes of the consumed chunk not yet handed out
	stopped atomic.Bool
	wg      sync.WaitGroup
}

type scanJob struct {
	chunk int
	out   chan []scanHit
}

type scanHit struct {
	idx int
	p   *big.Int
}

// prime returns the next bits-bit prime of the stream, restarting the
// scan at the consumed offset if the previous request was for another
// size.
func (s *primeScan) prime(bits int) (*big.Int, error) {
	if bits != s.bits {
		s.stop()
		if bits < 16 {
			return nil, errors.New("auth: prime size too small")
		}
		s.start(bits)
	}
	for len(s.hits) == 0 {
		j := s.pending[0]
		s.pending = s.pending[1:]
		s.dispatch()
		s.hits = <-j.out
	}
	h := s.hits[0]
	s.hits = s.hits[1:]
	s.used = h.idx + 1
	return h.p, nil
}

func (s *primeScan) start(bits int) {
	workers := runtime.GOMAXPROCS(0)
	s.bits, s.size, s.base, s.used = bits, (bits+7)/8, s.stream.off, 0
	// Two chunks in flight per worker keep every worker busy while the
	// consumer waits on the oldest chunk; the buffer holds them all.
	s.jobs = make(chan scanJob, 2*workers)
	s.pending, s.next, s.hits = nil, 0, nil
	s.stopped.Store(false)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.work()
	}
	for i := 0; i < 2*workers; i++ {
		s.dispatch()
	}
}

func (s *primeScan) dispatch() {
	j := scanJob{chunk: s.next, out: make(chan []scanHit, 1)}
	s.next++
	s.pending = append(s.pending, j)
	s.jobs <- j
}

// stop joins the workers and moves the stream offset just past the last
// consumed candidate. It is a no-op if no scan runs.
func (s *primeScan) stop() {
	if s.bits == 0 {
		return
	}
	s.stopped.Store(true)
	close(s.jobs)
	s.wg.Wait()
	s.stream.off = s.base + uint64(s.used)*uint64(s.size)
	s.bits = 0
}

func (s *primeScan) work() {
	defer s.wg.Done()
	buf := make([]byte, s.size)
	x := new(big.Int)
	for j := range s.jobs {
		var hits []scanHit
		for i := j.chunk * scanChunk; i < (j.chunk+1)*scanChunk && !s.stopped.Load(); i++ {
			s.candidate(buf, i)
			x.SetBytes(buf)
			if sieved(x) && x.ProbablyPrime(20) {
				hits = append(hits, scanHit{idx: i, p: new(big.Int).Set(x)})
			}
		}
		j.out <- hits
	}
}

// candidate sets buf to candidate i.
func (s *primeScan) candidate(buf []byte, i int) {
	s.stream.fill(buf, s.base+uint64(i)*uint64(s.size))
	b := uint(s.bits % 8)
	if b == 0 {
		b = 8
	}
	buf[0] &= uint8(int(1<<b) - 1)
	// Top two bits so p*q has full length. For b == 1 the shift count
	// wraps and no bit is set; key assembly's BitLen check rejects the
	// short moduli, and the key bytes depend on this behaviour.
	buf[0] |= 3 << (b - 2)
	buf[len(buf)-1] |= 1 // odd
}
