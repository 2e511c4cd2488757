package paillier

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"testing"
)

// sumKnownAnswers is testdata/sum_known_answers.json: a fixed 512-bit key,
// 553 fixed ciphertexts (encryptions of random int32 values, with n²-1 at
// positions 1 and 300 and 1 at 77 and 552, both encryptions of 0) and the
// sums of their first k, recorded once from the Mul+QuoRem fold the
// Montgomery one replaced and never regenerated.
type sumKnownAnswers struct {
	P     string   `json:"p"`
	Q     string   `json:"q"`
	Terms []string `json:"terms"`
	Sums  []struct {
		K     int    `json:"k"`
		Sum   string `json:"sum"`
		Plain string `json:"plain"` // Decrypt of the sum, in decimal
	} `json:"sums"`
}

func TestAccumulatorSumKnownAnswers(t *testing.T) {
	raw, err := os.ReadFile("testdata/sum_known_answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var ka sumKnownAnswers
	if err := json.Unmarshal(raw, &ka); err != nil {
		t.Fatal(err)
	}
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sk, err := NewPrivateKey(new(big.Int).SetBytes(unhex(ka.P)), new(big.Int).SetBytes(unhex(ka.Q)))
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := PublicKeyFromN(sk.PublicKey.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(ka.Terms) != 553 || len(ka.Sums) != 5 {
		t.Fatalf("known-answer file has %d terms and %d sums, want 553 and 5", len(ka.Terms), len(ka.Sums))
	}
	for _, want := range ka.Sums {
		// The cloud folds under a key parsed from n, the gateway under its
		// private key: both constructors must give the same sum.
		for _, pk := range []*PublicKey{cloud, &sk.PublicKey} {
			acc := pk.NewAccumulator()
			for _, term := range ka.Terms[:want.K] {
				if err := acc.Add(unhex(term)); err != nil {
					t.Fatalf("k=%d: Add: %v", want.K, err)
				}
			}
			if got := hex.EncodeToString(acc.Bytes()); got != want.Sum {
				t.Fatalf("k=%d: sum = %s, want %s", want.K, got, want.Sum)
			}
			if m, err := sk.Decrypt(acc.Ciphertext()); err != nil || m.String() != want.Plain {
				t.Fatalf("k=%d: sum decrypts to %v, %v, want %s", want.K, m, err, want.Plain)
			}
		}
	}
	if ka.Sums[0].K != 1 || ka.Sums[0].Sum != ka.Terms[0] {
		t.Fatal("the one-term sum is not its term, byte for byte")
	}
}

// TestAccumulatorMatchesMulMod: the Montgomery fold gives, byte for byte,
// the Mul+Mod fold of the same terms — random values below n², with 1 and
// n²-1 mixed in — over random k in [1, 600] at 256 and 1024 bits. After
// every term 0, n² and an empty slice are refused, and a Bytes call in
// mid-sum leaves the rest of the sum right.
func TestAccumulatorMatchesMulMod(t *testing.T) {
	for _, bits := range []int{256, 1024} {
		sk, err := GenerateKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := PublicKeyFromN(sk.PublicKey.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		nm1 := new(big.Int).Sub(pk.N2, one)
		bad := [][]byte{{0}, pk.N2.Bytes(), {}}
		sums := 100
		if testing.Short() {
			sums = 20
		}
		for s := 0; s < sums; s++ {
			k := 1 + rng.Intn(600)
			mid := rng.Intn(k) // Bytes is also read after term mid
			acc := pk.NewAccumulator()
			want := new(big.Int)
			for i := 0; i < k; i++ {
				var term *big.Int
				switch rng.Intn(20) {
				case 0:
					term = one
				case 1:
					term = nm1
				default:
					term = new(big.Int).Rand(rng, nm1)
					term.Add(term, one) // [1, n²)
				}
				if i == 0 {
					want.Set(term)
				} else {
					want.Mul(want, term).Mod(want, pk.N2)
				}
				if err := acc.Add(term.Bytes()); err != nil {
					t.Fatalf("%d bits, sum %d, term %d: Add: %v", bits, s, i, err)
				}
				for _, b := range bad {
					if err := acc.Add(b); !errors.Is(err, ErrInvalidCipher) {
						t.Fatalf("%d bits, sum %d, term %d: Add(%x) = %v, want ErrInvalidCipher", bits, s, i, b, err)
					}
				}
				if i == mid {
					if got := new(big.Int).SetBytes(acc.Bytes()); got.Cmp(want) != 0 {
						t.Fatalf("%d bits, sum %d: after %d terms sum = %x, want %x", bits, s, i+1, got, want)
					}
				}
			}
			if got := acc.Bytes(); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%d bits, sum %d of %d terms = %x, want %x", bits, s, k, got, want.Bytes())
			}
			if acc.Ciphertext().C.Cmp(want) != 0 {
				t.Fatalf("%d bits, sum %d: Ciphertext differs from Bytes", bits, s)
			}
		}
	}
}

// TestAccumulatorAddAllocs: once the accumulator exists, folding a term
// allocates nothing.
func TestAccumulatorAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	sk := key(t)
	ct, err := sk.EncryptInt64(5)
	if err != nil {
		t.Fatal(err)
	}
	raw := ct.Bytes()
	acc := sk.NewAccumulator()
	if got := testing.AllocsPerRun(200, func() {
		if err := acc.Add(raw); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Add makes %v allocations, want 0", got)
	}
}

// BenchmarkAccumulatorSum times the cloud's agg.sum at the 1024-bit width
// it runs: a key parsed from n, an accumulator, k stored ciphertexts folded
// and the sum serialized. A paper_mix avg folds about 50 ciphertexts per
// shard and 150 in all.
func BenchmarkAccumulatorSum(b *testing.B) {
	sk, _ := benchKey(b)
	pk, err := PublicKeyFromN(sk.PublicKey.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, 150)
	for i := range raws {
		ct, err := sk.EncryptInt64(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = ct.Bytes()
	}
	for _, k := range []int{3, 50, 150} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := pk.NewAccumulator()
				for _, raw := range raws[:k] {
					if err := acc.Add(raw); err != nil {
						b.Fatal(err)
					}
				}
				benchBytes = acc.Bytes()
			}
		})
	}
}

var benchBytes []byte
