package paillier

import (
	"math"
	"math/big"
	"sync"
	"testing"
)

// toyTable builds a mask table for a prime far below NewPrivateKey's size
// floor, where T_f is small enough to enumerate.
func toyTable(t *testing.T, prime int64) (tab *maskTable, f *big.Int) {
	t.Helper()
	f = big.NewInt(prime)
	fm1 := new(big.Int).Sub(f, one)
	tab, err := newMaskTable(f, fm1, new(big.Int).Mul(f, f))
	if err != nil {
		t.Fatal(err)
	}
	return tab, f
}

// orderOf counts the powers of x mod m up to the first 1.
func orderOf(x, m *big.Int) int {
	p := new(big.Int).Set(x)
	n := 1
	for p.Cmp(one) != 0 {
		p.Mul(p, x).Mod(p, m)
		n++
	}
	return n
}

// TestToyMasksAreUniformOnTheSubgroup is the distribution claim where it can
// be checked exhaustively: over a 10-bit prime the accepted base has order
// exactly f-1, and 200 000 masks cover every element of T_f with a χ²
// inside its 99.9 % bound (so one run in a thousand fails by design).
func TestToyMasksAreUniformOnTheSubgroup(t *testing.T) {
	tab, f := toyTable(t, 1021) // f-1 = 2²·3·5·17; two windows, the top one partial
	order := int(f.Int64()) - 1
	if got := orderOf(tab.g, tab.ff); got != order {
		t.Fatalf("base has order %d in Z*_{f²}, want f-1 = %d", got, order)
	}
	const draws = 200_000
	seen := make(map[int64]int, order)
	for i := 0; i < draws; i++ {
		m, err := tab.random()
		if err != nil {
			t.Fatal(err)
		}
		seen[m.Int64()]++
	}
	if len(seen) != order {
		t.Fatalf("%d masks hit %d distinct values, want all %d elements of T_f", draws, len(seen), order)
	}
	var x big.Int
	expect := float64(draws) / float64(order)
	chi2 := 0.0
	for v, n := range seen {
		if x.Exp(big.NewInt(v), tab.fm1, tab.ff).Cmp(one) != 0 {
			t.Fatalf("mask %d is outside T_f: mask^(f-1) != 1 mod f²", v)
		}
		d := float64(n) - expect
		chi2 += d * d / expect
	}
	// Wilson–Hilferty approximation of the χ² quantile; z = 3.0902 is the
	// 99.9 % point of the normal distribution.
	df := float64(order - 1)
	c := 2 / (9 * df)
	bound := df * math.Pow(1-c+3.0902*math.Sqrt(c), 3)
	if chi2 > bound {
		t.Fatalf("χ² = %.1f over %d cells exceeds the 99.9 %% bound %.1f", chi2, order, bound)
	}
}

// TestGeneratorCheckRejectsPlantedSubgroups uses f = 2311, whose f-1 is
// 2·3·5·7·11: for each of those primes ℓ, the ℓ-th power of a generator has
// index ℓ and must be refused as a base.
func TestGeneratorCheckRejectsPlantedSubgroups(t *testing.T) {
	tab, f := toyTable(t, 2311)
	small := smallPrimeDivisors(tab.fm1)
	if len(small) != 5 || small[0].Int64() != 2 || small[4].Int64() != 11 {
		t.Fatalf("smallPrimeDivisors(2310) = %v, want [2 3 5 7 11]", small)
	}
	if got := orderOf(tab.g, tab.ff); got != 2310 {
		t.Fatalf("accepted base has order %d, want 2310", got)
	}
	gen := new(big.Int).Mod(tab.g, f) // a generator of Z*_f: reduction is injective on T_f
	if !generatesUpTo(gen, f, tab.fm1, small) {
		t.Fatal("a generator was rejected")
	}
	for _, l := range small {
		planted := new(big.Int).Exp(gen, l, f)
		if generatesUpTo(planted, f, tab.fm1, small) {
			t.Errorf("base of index %s was accepted", l)
		}
	}
}

// TestPowMatchesExp injects exponents whose digits hit the edges of the
// table walk and compares each product with the exponentiation it replaces.
// The 250-bit factor of a 500-bit key leaves a two-bit top window.
func TestPowMatchesExp(t *testing.T) {
	odd, err := GenerateKey(500)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{key(t), odd} {
		tab, err := newMaskTable(sk.P, sk.pm1, sk.pp)
		if err != nil {
			t.Fatal(err)
		}
		bit := func(ks ...int) *big.Int {
			r := new(big.Int)
			for _, k := range ks {
				r.SetBit(r, k, 1)
			}
			return r
		}
		top := tab.fm1.BitLen() - 1
		cases := map[string]*big.Int{
			"zero":                  new(big.Int),
			"one":                   big.NewInt(1),
			"f-2":                   new(big.Int).Sub(tab.fm1, one),
			"zero digits at top":    big.NewInt(0x0102),
			"zero digits in middle": bit(0, top-1),
			"only the top digit":    bit(top - 1),
			"full low word":         new(big.Int).SetUint64(math.MaxUint64),
			"digit across words":    bit(62, 63, 64, 65),
		}
		for i := 0; i < 50; i++ {
			r, err := randBelow(tab.fm1)
			if err != nil {
				t.Fatal(err)
			}
			cases["random "+r.String()] = r
		}
		for name, r := range cases {
			want := new(big.Int).Exp(tab.g, r, tab.ff)
			if got := tab.pow(r); got.Cmp(want) != 0 {
				t.Errorf("%d-bit factor, %s: pow = %s, want G^r = %s", sk.P.BitLen(), name, got, want)
			}
		}
		if got := tab.pow(big.NewInt(1)); got.Cmp(tab.g) != 0 {
			t.Errorf("pow(1) is not the base")
		}
	}
}

// TestDecryptOnlyKeyBuildsNoTable: the table is paid for by the first mask,
// not by NewPrivateKey or Decrypt.
func TestDecryptOnlyKeyBuildsNoTable(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sk.PublicKey.EncryptInt64(-99)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sk.DecryptInt64(ct); err != nil || got != -99 {
		t.Fatalf("Decrypt = %d, %v", got, err)
	}
	if sk.maskP != nil || sk.maskQ != nil {
		t.Fatal("a key that never drew a mask built its mask tables")
	}
	if _, err := sk.EncryptInt64(1); err != nil {
		t.Fatal(err)
	}
	if sk.maskP == nil || sk.maskQ == nil {
		t.Fatal("the first Encrypt did not build the mask tables")
	}
}

// TestMaskTablesBuiltOnceUnderRace races 16 goroutines into the first
// Encrypt of a fresh key (run under -race in CI): every one must see the
// same pair of tables and produce a decryptable ciphertext.
func TestMaskTablesBuiltOnceUnderRace(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	const racers = 16
	tables := make([][2]*maskTable, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ct, err := sk.EncryptInt64(int64(g))
			if err != nil {
				t.Errorf("Encrypt: %v", err)
				return
			}
			tables[g] = [2]*maskTable{sk.maskP, sk.maskQ}
			if got, err := sk.DecryptInt64(ct); err != nil || got != int64(g) {
				t.Errorf("round trip of %d = %d, %v", g, got, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, pair := range tables {
		if pair[0] == nil || pair != tables[0] {
			t.Fatalf("goroutine %d saw tables %v, goroutine 0 saw %v", g, pair, tables[0])
		}
	}
}

// TestWarmMaskAllocs pins the scratch reuse in pow: a mask allocates a
// fixed handful of big.Ints, not one per table multiplication.
func TestWarmMaskAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sk := key(t)
	if _, err := sk.newMask(); err != nil { // builds the tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sk.newMask(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("warm newMask allocates %.0f times, want <= 32", allocs)
	}
}

func BenchmarkMaskTableBuild(b *testing.B) {
	sk, _ := benchKey(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := newMaskTable(sk.P, sk.pm1, sk.pp)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tab.g
	}
}
