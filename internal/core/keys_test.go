package core

import (
	"errors"
	"testing"

	"provnet/internal/auth"
)

// TestKeysOnlyWhenUsed pins that NewNetwork derives RSA keys only for
// schemes that sign with them: none and HMAC networks register levels
// only, while RSA and session networks hold every key on return.
func TestKeysOnlyWhenUsed(t *testing.T) {
	levels := map[string]int64{"a": 3, "b": 2}
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	cases := []struct {
		name    string
		scheme  auth.Scheme
		session bool
		keys    bool
	}{
		{"none", auth.SchemeNone, false, false},
		{"hmac", auth.SchemeHMAC, false, false},
		{"rsa", auth.SchemeRSA, false, true},
		{"session", auth.SchemeHMAC, true, true},
	}
	payload := []byte("reachable(a,c)")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := NewNetwork(Config{
				Source: ReachableSeNDlog, Graph: paperGraph(), LinkNoCost: true,
				Auth: c.scheme, SessionAuth: c.session, KeyBits: 512, Levels: levels,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ps := n.dir.Principals(); len(ps) != len(want) {
				t.Fatalf("principals = %v, want %d", ps, len(want))
			}
			signer := auth.NewRSASigner(n.dir)
			for name, level := range want {
				if got := n.dir.Level(name); got != level {
					t.Errorf("level(%s) = %d, want %d", name, got, level)
				}
				tag, err := signer.Sign(name, payload)
				if !c.keys {
					if !errors.Is(err, auth.ErrUnknownPrincipal) {
						t.Errorf("sign as %s: err = %v, want unknown principal", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("sign as %s: %v", name, err)
				}
				if err := signer.Verify(name, payload, tag); err != nil {
					t.Errorf("verify %s: %v", name, err)
				}
			}
		})
	}
}
