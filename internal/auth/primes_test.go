package auth

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallPrimes lists the odd primes up to sieveMax by trial division,
// independently of the sieve's own table.
func smallPrimes() []int64 {
	var out []int64
	for q := int64(3); q <= sieveMax; q += 2 {
		prime := true
		for d := int64(3); d*d <= q; d += 2 {
			if q%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, q)
		}
	}
	return out
}

func TestSieveTable(t *testing.T) {
	want := smallPrimes()
	var got []int64
	for _, g := range sieveGroups {
		prod := uint(1)
		for _, q := range g.primes {
			got = append(got, int64(q))
			prod *= q
		}
		if prod != g.m {
			t.Errorf("group %v: product %d, want %d", g.primes, g.m, prod)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("table has %d primes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table prime %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSieveKeepsPrimes(t *testing.T) {
	for _, q := range smallPrimes() {
		if !sieved(big.NewInt(q)) {
			t.Errorf("table prime %d rejected", q)
		}
	}
	for _, size := range []int{16, 31, 64, 65, 256, 512, 1024} {
		for i := 0; i < 8; i++ {
			p, err := rand.Prime(rand.Reader, size)
			if err != nil {
				t.Fatal(err)
			}
			if !sieved(p) {
				t.Errorf("%d-bit prime %v rejected", size, p)
			}
		}
	}
}

func TestSieveDoesNotAllocate(t *testing.T) {
	x, err := rand.Prime(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { sieved(x) }); n != 0 {
		t.Errorf("sieved allocates %v times per call", n)
	}
}

// FuzzSieve checks the sieve against gcd with the product of the small
// primes: an odd input is rejected exactly when it shares a factor with
// that product and is not itself one of the primes.
func FuzzSieve(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{0x1f, 0xff}) // 8191
	f.Add([]byte{0x20, 0x01}) // 8193 = 3·2731
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(big.NewInt(8209 * 8219).Bytes()) // both factors above sieveMax
	// Multi-word inputs: the prime 2^127-1, alone and times table primes.
	m127 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))
	f.Add(m127.Bytes())
	for _, q := range []int64{3, 53, 59, 8191} {
		f.Add(new(big.Int).Mul(m127, big.NewInt(q)).Bytes())
	}
	product := big.NewInt(1)
	table := map[int64]bool{}
	for _, q := range smallPrimes() {
		product.Mul(product, big.NewInt(q))
		table[q] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := new(big.Int).SetBytes(data)
		if x.Bit(0) == 0 {
			return
		}
		shares := new(big.Int).GCD(nil, nil, x, product).Cmp(big.NewInt(1)) != 0
		own := x.IsInt64() && table[x.Int64()]
		if got, want := sieved(x), !shares || own; got != want {
			t.Fatalf("sieved(%v) = %v, want %v", x, got, want)
		}
	})
}

// TestScanJoinsWorkers pins that no scan worker outlives AddPrincipals,
// including a batch that restarts the scan for alternating prime sizes.
func TestScanJoinsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, bits := range []int{512, 769} {
		d := NewDeterministicDirectory(9)
		d.SetKeyBits(bits)
		if err := d.AddPrincipals([]Principal{{Name: "a", Level: 1}, {Name: "b", Level: 1}}); err != nil {
			t.Fatal(err)
		}
		// A joined worker has run wg.Done but may not have returned yet;
		// give it a moment, then require every worker gone.
		deadline := time.Now().Add(time.Second)
		for scanWorkers() > 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := scanWorkers(); n > 0 {
			t.Errorf("%d-bit batch: %d scan workers still running", bits, n)
		}
	}
}

func scanWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*primeScan).work")
}
