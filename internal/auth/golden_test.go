package auth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// A keyCase derives principals p0, p1, ... from a deterministic
// directory: steps[i] principals at bits[i] each, in order.
type keyCase struct {
	seed  int64
	bits  []int
	steps []int
	want  string // hex SHA-256 over every principal's (N, D), in order
}

// goldenKeys pins deterministic key bytes. The hashes were captured
// from the original serial prime search; any change to candidates,
// accepted primes or key assembly shows up here.
var goldenKeys = []keyCase{
	{seed: 1, bits: []int{512}, steps: []int{5}, want: "7516c3947ccc9063f406d7399156c696d233a1ac2cac8c12922f3f66284e1bc3"},
	{seed: 7, bits: []int{512}, steps: []int{5}, want: "a3ff1bfcff614771eaa3bdede8837a3d41524c5f2873c8308b70b2bb3cfe697e"},
	{seed: 42, bits: []int{512}, steps: []int{5}, want: "022a1e158a10564ea05d3e13ca233168214eacc899c73f4f60e70712f3ecdddb"},
	{seed: 1, bits: []int{1024}, steps: []int{5}, want: "eee5208d8dc660d8b2a7b5a8d9795f6cedf4e7270d39e61db7c8aa9b5829e4e7"},
	{seed: 7, bits: []int{1024}, steps: []int{5}, want: "2ece1930ae8726eb2c8acb5f36a815c5f484539092f63d907b7a10fbdd09d8cb"},
	{seed: 42, bits: []int{1024}, steps: []int{5}, want: "6cbf0dd6186c882ca5eeaee77306dc170205dce9b0d334cc24f8201f8605690b"},
	// SetKeyBits mid-stream: the second size starts where the first
	// size's last prime ended.
	{seed: 3, bits: []int{512, 1024}, steps: []int{2, 3}, want: "51a99fd5953bda66bb44915d97ba21b71ae6d2af180f2452d9ade256ad63c7a0"},
	// Odd modulus: p and q candidates differ in length (48 and 49
	// bytes), so the search alternates sizes.
	{seed: 5, bits: []int{769}, steps: []int{5}, want: "04f4c11e09d172bee86899b4b70cf7522fda0f1e3ad1301e96a506db9ff06504"},
}

func (c keyCase) name() string {
	return fmt.Sprintf("seed%d/bits%v/steps%v", c.seed, c.bits, c.steps)
}

// digest derives the case's keys and hashes them. With batch set, each
// step is one AddPrincipals call; otherwise every principal is its own
// AddPrincipal call.
func (c keyCase) digest(t *testing.T, batch bool) string {
	t.Helper()
	d := NewDeterministicDirectory(c.seed)
	var names []string
	for i, n := range c.steps {
		d.SetKeyBits(c.bits[i])
		var ps []Principal
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("p%d", len(names))
			names = append(names, name)
			ps = append(ps, Principal{Name: name, Level: 1})
		}
		if batch {
			if err := d.AddPrincipals(ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, p := range ps {
			if err := d.AddPrincipal(p.Name, p.Level); err != nil {
				t.Fatal(err)
			}
		}
	}
	return keyDigest(t, d, names)
}

func keyDigest(t *testing.T, d *Directory, names []string) string {
	t.Helper()
	h := sha256.New()
	for _, name := range names {
		k := d.privateKey(name)
		if k == nil {
			t.Fatalf("no key for %q", name)
		}
		for _, v := range [][]byte{k.N.Bytes(), k.D.Bytes()} {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(v))))
			h.Write(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range goldenKeys {
			for _, batch := range []bool{false, true} {
				if got := c.digest(t, batch); got != c.want {
					t.Errorf("GOMAXPROCS=%d batch=%v %s: key digest %s, want %s", procs, batch, c.name(), got, c.want)
				}
			}
		}
	}
}
