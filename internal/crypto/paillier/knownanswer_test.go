package paillier

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/big"
	"math/rand"
	"os"
	"testing"
)

// decryptKnownAnswers is testdata/decrypt_int64_known_answers.json: a fixed
// 512-bit key and ciphertexts of int64 edges, of sums that leave int64 in
// either direction, of crafted plaintexts just outside int64, and of values
// outside [1, n²). Recorded once from the two-half decryption and never
// regenerated.
type decryptKnownAnswers struct {
	P     string `json:"p"`
	Q     string `json:"q"`
	Cases []struct {
		Name  string `json:"name"`
		C     string `json:"c"`
		Plain string `json:"plain"` // Decrypt's result in decimal; empty for "invalid"
		Want  int64  `json:"want"`
		Err   string `json:"err"` // "", "int64" (out of range) or "invalid"
	} `json:"cases"`
}

func TestDecryptInt64KnownAnswers(t *testing.T) {
	raw, err := os.ReadFile("testdata/decrypt_int64_known_answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var ka decryptKnownAnswers
	if err := json.Unmarshal(raw, &ka); err != nil {
		t.Fatal(err)
	}
	hexInt := func(s string) *big.Int {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return new(big.Int).SetBytes(b)
	}
	sk, err := NewPrivateKey(hexInt(ka.P), hexInt(ka.Q))
	if err != nil {
		t.Fatal(err)
	}
	if len(ka.Cases) != 16 {
		t.Fatalf("known-answer file has %d cases, want 16", len(ka.Cases))
	}
	for _, tc := range ka.Cases {
		ct := &Ciphertext{C: hexInt(tc.C), pk: &sk.PublicKey}
		got, err := sk.DecryptInt64(ct)
		switch tc.Err {
		case "":
			if err != nil || got != tc.Want {
				t.Errorf("%s: DecryptInt64 = %d, %v, want %d", tc.Name, got, err, tc.Want)
			}
		case "int64":
			if err == nil || errors.Is(err, ErrInvalidCipher) {
				t.Errorf("%s: DecryptInt64 = %d, %v, want an out-of-range error", tc.Name, got, err)
			}
		case "invalid":
			if !errors.Is(err, ErrInvalidCipher) {
				t.Errorf("%s: DecryptInt64 = %d, %v, want ErrInvalidCipher", tc.Name, got, err)
			}
			if _, err := sk.Decrypt(ct); !errors.Is(err, ErrInvalidCipher) {
				t.Errorf("%s: Decrypt error %v, want ErrInvalidCipher", tc.Name, err)
			}
			continue
		default:
			t.Fatalf("%s: unknown err kind %q", tc.Name, tc.Err)
		}
		if m, err := sk.Decrypt(ct); err != nil || m.String() != tc.Plain {
			t.Errorf("%s: Decrypt = %v, %v, want %s", tc.Name, m, err, tc.Plain)
		}
	}
}

// TestDecryptInt64MatchesDecrypt: the one-half DecryptInt64 agrees with the
// two-half Decrypt — the same value, or an error from both — on random int64
// plaintexts and on 1 000-term mixed-sign sums, some of which leave int64.
// Ciphertexts reuse a few dozen masks, which changes nothing about
// decryption and keeps 10 000 cases at 1024 bits within seconds.
func TestDecryptInt64MatchesDecrypt(t *testing.T) {
	for _, bits := range []int{256, 1024} {
		sk, err := GenerateKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		masks := make([]*big.Int, 32)
		for i := range masks {
			if masks[i], err = sk.newMask(); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		enc := func(i int, v int64) *Ciphertext {
			m, err := sk.encode(big.NewInt(v))
			if err != nil {
				t.Fatal(err)
			}
			return sk.encryptWithMask(m, masks[i%len(masks)])
		}
		check := func(what string, ct *Ciphertext, want *big.Int) {
			t.Helper()
			m, err := sk.Decrypt(ct)
			if err != nil || m.Cmp(want) != 0 {
				t.Fatalf("%d bits, %s: Decrypt = %v, %v, want %s", bits, what, m, err, want)
			}
			got, err := sk.DecryptInt64(ct)
			switch {
			case m.IsInt64() && (err != nil || got != m.Int64()):
				t.Fatalf("%d bits, %s: DecryptInt64 = %d, %v, want %s", bits, what, got, err, m)
			case !m.IsInt64() && err == nil:
				t.Fatalf("%d bits, %s: DecryptInt64 = %d for %s, want an out-of-range error", bits, what, got, m)
			}
		}

		values := 10000
		if testing.Short() && bits > 256 {
			values = 500
		}
		for i := 0; i < values; i++ {
			v := int64(rng.Uint64())
			check("value", enc(i, v), big.NewInt(v))
		}
		// Sum j draws its terms below 2^(63-shift): the large shifts keep
		// the sum inside int64, the small ones push most sums outside it.
		for j := 0; j < 24; j++ {
			shift := uint(j % 12)
			acc := sk.NewAccumulator()
			want := new(big.Int)
			for i := 0; i < 1000; i++ {
				v := int64(rng.Uint64()) >> shift
				if err := acc.Add(enc(i+j, v).Bytes()); err != nil {
					t.Fatal(err)
				}
				want.Add(want, big.NewInt(v))
			}
			check("1000-term sum", acc.Ciphertext(), want)
		}
	}
}
