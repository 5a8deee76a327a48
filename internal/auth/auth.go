// Package auth implements the security principals and the "says"
// authentication operator of SeNDlog (paper §2.2).
//
// The paper notes that the implementation of says depends on the threat
// model: "in a hostile world, says may require digital signatures, while in
// a more benign world, says may simply append a cleartext principal header
// to a message — and this will of course be cheaper." This package provides
// exactly that spectrum as Signer implementations:
//
//   - None: cleartext principal header, zero cryptographic cost;
//   - HMAC: shared-secret MACs, cheap symmetric authentication;
//   - RSA:  per-tuple RSA signatures over SHA-256 digests, the scheme used
//     in the paper's evaluation (OpenSSL-signed tuples in modified P2).
//
// It also maintains the principal directory: names, security levels (for
// the multi-level says of §2.2 and quantifiable provenance of §4.5), and
// key material.
package auth

import (
	"crypto"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
)

// Scheme identifies a says implementation.
type Scheme uint8

// Supported says schemes, from cheapest to most hostile-world.
// SchemeSession is the amortized hostile world: an RSA handshake per
// (src,dst) link, then HMAC session MACs per envelope (see SessionSealer).
const (
	SchemeNone Scheme = iota
	SchemeHMAC
	SchemeRSA
	SchemeSession
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeHMAC:
		return "hmac"
	case SchemeRSA:
		return "rsa"
	case SchemeSession:
		return "session"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Errors returned by verification.
var (
	ErrBadSignature     = errors.New("auth: signature verification failed")
	ErrUnknownPrincipal = errors.New("auth: unknown principal")
)

// Signer implements the says operator for one scheme: it authenticates a
// payload as asserted by a principal and verifies such assertions.
type Signer interface {
	// Scheme identifies the implementation.
	Scheme() Scheme
	// Sign returns an authentication tag binding payload to principal.
	Sign(principal string, payload []byte) ([]byte, error)
	// Verify checks that tag authenticates payload as said by principal.
	Verify(principal string, payload, tag []byte) error
}

// --- None ---

// NoneSigner is the benign-world says: a cleartext principal header and no
// cryptography. Verification always succeeds.
type NoneSigner struct{}

// Scheme returns SchemeNone.
func (NoneSigner) Scheme() Scheme { return SchemeNone }

// Sign returns an empty tag.
func (NoneSigner) Sign(string, []byte) ([]byte, error) { return nil, nil }

// Verify accepts everything.
func (NoneSigner) Verify(string, []byte, []byte) error { return nil }

// --- HMAC ---

// HMACSigner authenticates with per-principal HMAC-SHA256 keys derived
// from a deployment-wide master secret. It models a benign-but-not-open
// world where principals share pairwise trust in the infrastructure.
type HMACSigner struct {
	master []byte
}

// NewHMACSigner creates an HMAC signer from a master secret.
func NewHMACSigner(master []byte) *HMACSigner {
	cp := make([]byte, len(master))
	copy(cp, master)
	return &HMACSigner{master: cp}
}

// Scheme returns SchemeHMAC.
func (s *HMACSigner) Scheme() Scheme { return SchemeHMAC }

func (s *HMACSigner) key(principal string) []byte {
	mac := hmac.New(sha256.New, s.master)
	mac.Write([]byte("key:"))
	mac.Write([]byte(principal))
	return mac.Sum(nil)
}

// Sign returns HMAC-SHA256(key_principal, payload).
func (s *HMACSigner) Sign(principal string, payload []byte) ([]byte, error) {
	mac := hmac.New(sha256.New, s.key(principal))
	mac.Write(payload)
	return mac.Sum(nil), nil
}

// Verify recomputes and compares the MAC in constant time.
func (s *HMACSigner) Verify(principal string, payload, tag []byte) error {
	want, _ := s.Sign(principal, payload)
	if !hmac.Equal(want, tag) {
		return ErrBadSignature
	}
	return nil
}

// --- RSA ---

// DefaultRSABits is the default modulus size. The paper's 2008 evaluation
// used 1024-bit keys (OpenSSL 0.9.8b), which is also the smallest size
// modern crypto/rsa accepts by default; the default here is 2048 so that
// out-of-the-box runs use a currently-recommended size. Experiments
// reproducing the paper's numbers pass KeyBits/SetKeyBits(1024), and
// smaller ablation keys additionally need GODEBUG=rsa1024min=0.
const DefaultRSABits = 2048

// RSASigner implements the hostile-world says: each exported tuple is
// individually signed with the exporting principal's RSA private key
// (SHA-256 + PKCS#1 v1.5) and checked with the corresponding public key on
// import, as in the paper's modified P2.
type RSASigner struct {
	dir *Directory
}

// NewRSASigner creates a signer backed by the directory's key material.
func NewRSASigner(dir *Directory) *RSASigner { return &RSASigner{dir: dir} }

// Scheme returns SchemeRSA.
func (s *RSASigner) Scheme() Scheme { return SchemeRSA }

// Sign signs SHA-256(payload) with the principal's private key.
func (s *RSASigner) Sign(principal string, payload []byte) ([]byte, error) {
	key := s.dir.privateKey(principal)
	if key == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPrincipal, principal)
	}
	digest := sha256.Sum256(payload)
	return rsa.SignPKCS1v15(nil, key, crypto.SHA256, digest[:])
}

// Verify checks the signature against the principal's public key.
func (s *RSASigner) Verify(principal string, payload, tag []byte) error {
	pub := s.dir.publicKey(principal)
	if pub == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPrincipal, principal)
	}
	digest := sha256.Sum256(payload)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], tag); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}

// --- Directory ---

// Principal describes a security principal: its name and its security
// level for multi-level says and trust evaluation (§4.5). Higher levels are
// more trusted.
type Principal struct {
	Name  string
	Level int64
}

// Directory holds the deployment's principals: names, security levels, and
// RSA key pairs. It is safe for concurrent use.
type Directory struct {
	mu     sync.RWMutex
	levels map[string]int64
	keys   map[string]*rsa.PrivateKey
	bits   int
	det    *detStream // nil: keys come from crypto/rand
}

// NewDirectory creates an empty directory generating DefaultRSABits keys
// from crypto/rand.
func NewDirectory() *Directory {
	return &Directory{
		levels: make(map[string]int64),
		keys:   make(map[string]*rsa.PrivateKey),
		bits:   DefaultRSABits,
	}
}

// NewDeterministicDirectory creates a directory whose key generation draws
// from a seeded deterministic stream. The keys are NOT secure; determinism
// makes experiment runs reproducible and avoids re-generating key material
// between runs, exactly like reusing a test keystore.
func NewDeterministicDirectory(seed int64) *Directory {
	d := NewDirectory()
	d.det = newDetStream(seed)
	return d
}

// SetKeyBits overrides the RSA modulus size for subsequently added
// principals (for ablation experiments).
func (d *Directory) SetKeyBits(bits int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bits = bits
}

// AddPrincipal registers a principal with a security level, generating its
// key pair. Re-adding an existing principal only updates its level.
func (d *Directory) AddPrincipal(name string, level int64) error {
	return d.AddPrincipals([]Principal{{Name: name, Level: level}})
}

// AddPrincipals registers principals in order, as AddPrincipal does. A
// deterministic directory draws the whole batch's primes from one
// parallel scan of its stream; the keys are those of adding the
// principals one at a time.
func (d *Directory) AddPrincipals(ps []Principal) error {
	// The lock serializes use of the key stream; scan workers never
	// take it.
	d.mu.Lock()
	defer d.mu.Unlock()
	primes := &primeScan{stream: d.det}
	defer primes.stop()
	for _, p := range ps {
		d.levels[p.Name] = p.Level
		if _, ok := d.keys[p.Name]; ok {
			continue
		}
		var key *rsa.PrivateKey
		var err error
		if d.det != nil {
			// rsa.GenerateKey deliberately de-randomizes its reader
			// (randutil.MaybeReadByte), so reproducible keys must be
			// derived from primes directly.
			key, err = generateKeyFromPrimes(primes.prime, d.bits)
		} else {
			key, err = rsa.GenerateKey(rand.Reader, d.bits)
		}
		if err != nil {
			return fmt.Errorf("auth: generating key for %q: %w", p.Name, err)
		}
		d.keys[p.Name] = key
	}
	return nil
}

// generateKeyFromPrimes builds an RSA key pair from primes drawn in order
// from prime, bypassing rsa.GenerateKey's intentional nondeterminism
// (randutil.MaybeReadByte, which crypto/rand.Prime also applies). Used
// only for reproducible experiment keystores.
func generateKeyFromPrimes(prime func(bits int) (*big.Int, error), bits int) (*rsa.PrivateKey, error) {
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := prime(bits / 2)
		if err != nil {
			return nil, err
		}
		q, err := prime(bits - bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if key.Validate() != nil {
			continue
		}
		return key, nil
	}
}

// HasPrincipal reports whether name is registered.
func (d *Directory) HasPrincipal(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.levels[name]
	return ok
}

// Level returns the security level of a principal (0 if unknown).
func (d *Directory) Level(name string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.levels[name]
}

// SetLevel updates a principal's security level.
func (d *Directory) SetLevel(name string, level int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.levels[name] = level
}

// Principals returns all registered principals sorted by name.
func (d *Directory) Principals() []Principal {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Principal, 0, len(d.levels))
	for n, l := range d.levels {
		out = append(out, Principal{Name: n, Level: l})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *Directory) privateKey(name string) *rsa.PrivateKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.keys[name]
}

func (d *Directory) publicKey(name string) *rsa.PublicKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if k, ok := d.keys[name]; ok {
		return &k.PublicKey
	}
	return nil
}
