package paillier

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	mrand "math/rand/v2"
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

// TestPowMatchesExp compares each table product with the exponentiation it
// replaces, at every width the Montgomery product runs: the toy primes
// 1021 and 2311 (1 word, every exponent), the test key's factor and the
// 250-bit factor of a 500-bit key (4 words over an 8-word square, the
// latter with a two-bit top window), a 260-bit factor (5 words over a
// 9-word square, one short of twice f), and the factors of a KeyBits =
// 1024-bit key (8 over 16 words) and of a 2048-bit key (16 over 32 words).
// Above one word the exponents are ones whose digits hit the edges of the
// table walk, plus 50 random ones.
func TestPowMatchesExp(t *testing.T) {
	odd, err := GenerateKey(500)
	if err != nil {
		t.Fatal(err)
	}
	prime := func(size int) *big.Int {
		p, err := rand.Prime(rand.Reader, size)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	factors := []*big.Int{
		big.NewInt(1021), big.NewInt(2311),
		key(t).P, odd.P, prime(260), prime(512), prime(1024),
	}
	for _, f := range factors {
		fm1 := new(big.Int).Sub(f, one)
		tab, err := newMaskTable(f, fm1, new(big.Int).Mul(f, f))
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*big.Int{}
		if f.IsInt64() {
			for r := int64(0); r < fm1.Int64(); r++ {
				cases[fmt.Sprint(r)] = big.NewInt(r)
			}
		} else {
			bit := func(ks ...int) *big.Int {
				r := new(big.Int)
				for _, k := range ks {
					r.SetBit(r, k, 1)
				}
				return r
			}
			top := tab.fm1.BitLen() - 1
			cases = map[string]*big.Int{
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
		}
		for name, r := range cases {
			want := new(big.Int).Exp(tab.g, r, tab.ff)
			if got := tab.pow(r); got.Cmp(want) != 0 {
				t.Errorf("%d-bit factor, %s: pow = %s, want G^r = %s", f.BitLen(), name, got, want)
			}
		}
		if got := tab.pow(big.NewInt(1)); got.Cmp(tab.g) != 0 {
			t.Errorf("%d-bit factor: pow(1) is not the base", f.BitLen())
		}
	}
}

// TestMaskEntriesAreHalvesOfThePowers checks the table itself: entry (i, j)
// holds e < f and q < f with e·(1 + f·q) ≡ G^(j·2^(maskWindow·i))
// (mod f²), digit 0 included. It runs over every entry of the toy primes
// 1021 and 2311, and over the edge entries of a 512-bit factor — each
// window's first links and the one that crosses into the next window — and
// 300 random ones.
func TestMaskEntriesAreHalvesOfThePowers(t *testing.T) {
	large, err := rand.Prime(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewPCG(3, 4))
	for _, f := range []*big.Int{big.NewInt(1021), big.NewInt(2311), large} {
		fm1 := new(big.Int).Sub(f, one)
		tab, err := newMaskTable(f, fm1, new(big.Int).Mul(f, f))
		if err != nil {
			t.Fatal(err)
		}
		h := len(f.Bits())
		if len(tab.e) != tab.windows*maskDigits*h || len(tab.q) != len(tab.e) {
			t.Fatalf("%d-bit factor: slabs of %d and %d words, want %d·%d·%d",
				f.BitLen(), len(tab.e), len(tab.q), tab.windows, maskDigits, h)
		}
		check := func(i, j int) {
			at := (i*maskDigits + j) * h
			e := new(big.Int).SetBits(append([]big.Word(nil), tab.e[at:at+h]...))
			q := new(big.Int).SetBits(append([]big.Word(nil), tab.q[at:at+h]...))
			if e.Cmp(f) >= 0 || q.Cmp(f) >= 0 {
				t.Fatalf("%d-bit factor, entry (%d, %d): e = %s, q = %s, want both below f", f.BitLen(), i, j, e, q)
			}
			got := new(big.Int).Mul(f, q)
			got.Add(got, one).Mul(got, e).Mod(got, tab.ff)
			x := new(big.Int).Lsh(big.NewInt(int64(j)), uint(maskWindow*i))
			if want := x.Exp(tab.g, x, tab.ff); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit factor, entry (%d, %d): e·(1 + f·q) = %s, want G^(j·2^(%d·i)) = %s",
					f.BitLen(), i, j, got, maskWindow, want)
			}
		}
		if f.IsInt64() {
			for i := 0; i < tab.windows; i++ {
				for j := 0; j < maskDigits; j++ {
					check(i, j)
				}
			}
			continue
		}
		for i := 0; i < tab.windows; i++ {
			for _, j := range []int{0, 1, 2, maskDigits - 1} {
				check(i, j)
			}
		}
		for k := 0; k < 300; k++ {
			check(rng.IntN(tab.windows), rng.IntN(maskDigits))
		}
	}
}

// montRef returns math/big's x·y·R⁻¹ mod m, R = 2^(UintSize·l), and the
// value montMul holds before its final subtraction, u = (x·y + Q·m)/R with
// Q = -x·y·m⁻¹ mod R: u ≥ m takes the subtraction, u ≥ 2^(UintSize·n) for
// the n words of m the carry-out word.
func montRef(x, y, m *big.Int, l int) (want, u *big.Int) {
	r := new(big.Int).Lsh(one, uint(l*bits.UintSize))
	xy := new(big.Int).Mul(x, y)
	want = new(big.Int).Mul(xy, new(big.Int).ModInverse(r, m))
	want.Mod(want, m)
	q := new(big.Int).ModInverse(m, r)
	q.Sub(r, q).Mul(q, xy).Mod(q, r)
	u = q.Mul(q, m).Add(q, xy).Rsh(q, uint(l*bits.UintSize))
	return want, u
}

// checkMontMul runs montMul on x < m and a y of l words into a fresh z and
// aliased to x (and to y when l is m's width), compares each result with
// montRef's, and checks that the scratch's low l words hold Q and that the
// reported subtraction is montRef's u ≥ m.
func checkMontMul(t testing.TB, x, y, m *big.Int, l int) (u *big.Int) {
	t.Helper()
	n := len(m.Bits())
	want, u := montRef(x, y, m, l)
	r := new(big.Int).Lsh(one, uint(l*bits.UintSize))
	q := new(big.Int).ModInverse(m, r)
	q.Sub(r, q).Mul(q, x).Mul(q, y).Mod(q, r)
	mw, k0, scratch := m.Bits(), negInverse(m.Bits()[0]), make([]big.Word, n+l)
	aliases := []string{"none", "x"}
	if l == n {
		aliases = append(aliases, "y")
	}
	for _, alias := range aliases {
		xw, yw, z := words(x, n), words(y, l), make([]big.Word, n)
		switch alias {
		case "x":
			z = xw
		case "y":
			z = yw
		}
		subtracted := montMul(z, xw, yw, mw, k0, scratch)
		if got := new(big.Int).SetBits(z); got.Cmp(want) != 0 {
			t.Fatalf("%d words by %d, z aliasing %s: montMul(%s, %s) mod %s = %s, want %s",
				n, l, alias, x, y, m, got, want)
		}
		if got := new(big.Int).SetBits(append([]big.Word(nil), scratch[:l]...)); got.Cmp(q) != 0 {
			t.Fatalf("%d words by %d: scratch holds Q = %s, want %s", n, l, got, q)
		}
		if subtracted != (u.Cmp(m) >= 0) {
			t.Fatalf("%d words by %d: montMul reports subtracted = %v for u = %s, m = %s", n, l, subtracted, u, m)
		}
	}
	return u
}

// TestMontMul checks the Montgomery product against math/big at 1, 8, 16
// and 32 words, over an all-ones modulus R-1, one with a top word of 1
// (above one word), a random full-width one and, at 8 words, the test
// key's p². Operands are 0, 1 and m-1 and 300 random pairs per modulus,
// each also as a half-width product by the low half of y's words; at each
// width the full product's final subtraction and carry-out word must both
// have been taken.
func TestMontMul(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(1, 2))
	random := func(n int) *big.Int {
		w := make([]big.Word, n)
		for i := range w {
			w[i] = big.Word(rng.Uint64())
		}
		return new(big.Int).SetBits(w)
	}
	for _, n := range []int{1, 8, 16, 32} {
		r := new(big.Int).Lsh(one, uint(n*bits.UintSize))
		full := random(n)
		full.SetBit(full, n*bits.UintSize-1, 1).SetBit(full, 0, 1)
		moduli := []*big.Int{new(big.Int).Sub(r, one), full}
		if n > 1 {
			top := new(big.Int).Rsh(r, bits.UintSize) // a top word of 1
			top.Add(top, random(n-1)).SetBit(top, 0, 1)
			moduli = append(moduli, top)
		}
		if n == 8 {
			moduli = append(moduli, key(t).pp)
		}
		var subtractions, carries int
		for _, m := range moduli {
			if len(m.Bits()) != n {
				t.Fatalf("modulus %s has %d words, want %d", m, len(m.Bits()), n)
			}
			mm1 := new(big.Int).Sub(m, one)
			pairs := [][2]*big.Int{
				{new(big.Int), new(big.Int)}, {new(big.Int), mm1}, {one, one},
				{one, mm1}, {mm1, mm1},
			}
			for i := 0; i < 300; i++ {
				x, y := random(n), random(n)
				pairs = append(pairs, [2]*big.Int{x.Mod(x, m), y.Mod(y, m)})
			}
			for _, p := range pairs {
				half := (n + 1) / 2 // the mask product's y: its low words, any value
				checkMontMul(t, p[0], new(big.Int).SetBits(words(p[1], n)[:half]), m, half)
				u := checkMontMul(t, p[0], p[1], m, n)
				if u.Cmp(m) >= 0 {
					subtractions++
				}
				if u.Cmp(r) >= 0 {
					carries++
				}
			}
		}
		if subtractions == 0 || carries == 0 {
			t.Errorf("%d words: %d final subtractions and %d carry-out words taken, want both", n, subtractions, carries)
		}
	}
}

// FuzzMontMul checks the Montgomery product against math/big for any odd
// modulus of up to 32 words, any x below it and any y: a y of fewer words
// than the modulus runs as the half-width product, R = 2^(UintSize·len(y)),
// and a longer one is reduced mod m first.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xfe}, []byte{0xff, 0xfe})
	f.Add(bytes.Repeat([]byte{0xff}, 128), bytes.Repeat([]byte{0xaa}, 128), bytes.Repeat([]byte{0x55}, 127))
	f.Add(append([]byte{1}, make([]byte, 255)...), []byte{1}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 128), bytes.Repeat([]byte{0x77}, 128), bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x9d}, 72), bytes.Repeat([]byte{0xff}, 72), bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, mb, xb, yb []byte) {
		if len(mb) > 32*bits.UintSize/8 {
			mb = mb[:32*bits.UintSize/8]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		n := len(m.Bits())
		x, y := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb)
		l := max(1, (len(yb)+bits.UintSize/8-1)/(bits.UintSize/8))
		if l >= n {
			l = n
			y.Mod(y, m)
		}
		checkMontMul(t, x.Mod(x, m), y, m, l)
	})
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

// TestWarmMaskAllocs pins the allocations of a mask: the two exponents'
// draws, one scratch buffer and one big.Int per table product, and garner's
// big.Ints — none per table multiplication.
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
	if allocs > 17 {
		t.Fatalf("warm newMask allocates %.0f times, want <= 17", allocs)
	}
}

func BenchmarkMaskTableBuild(b *testing.B) {
	benchWidths(b, func(b *testing.B, sk *PrivateKey) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab, err := newMaskTable(sk.P, sk.pm1, sk.pp)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = tab.g
		}
	})
}
