package main

import (
	"fmt"
	"math/big"
	"time"

	"datablinder/internal/crypto/ope"
	"datablinder/internal/crypto/paillier"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/docstore"
	"datablinder/internal/store/kvstore"
	tpaillier "datablinder/internal/tactics/paillier"
)

// timeLoop is the median, over rounds, of the mean time of one call in a
// round of n calls, in microseconds.
func timeLoop(rounds, n int, f func(i int)) float64 {
	per := make([]float64, rounds)
	k := 0
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(k)
			k++
		}
		per[r] = float64(time.Since(start)) / 1e3 / float64(n)
	}
	return p(per, 0.5)
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// cryptoProbes times the primitives the tactics are built from, called
// directly: what one call costs with nothing else on the CPU.
func cryptoProbes(m metrics) error {
	key, err := primitives.NewRandomKey()
	if err != nil {
		return err
	}
	mac, err := primitives.NewRandomKey()
	if err != nil {
		return err
	}
	aead, err := primitives.NewAEAD(key)
	if err != nil {
		return err
	}
	det, err := primitives.NewDET(key, mac)
	if err != nil {
		return err
	}
	doc := make([]byte, 400) // about one sealed Observation
	sealed, err := aead.Seal(doc, nil)
	if err != nil {
		return err
	}
	field := []byte("blood-pressure")
	seal := timeLoop(5, 2000, func(int) { sink, _ = aead.Seal(doc, nil) })
	open := timeLoop(5, 2000, func(int) { sink, _ = aead.Open(sealed, nil) })
	detUs := timeLoop(5, 2000, func(int) { sink = det.Encrypt(field) })
	prf := timeLoop(5, 2000, func(int) { sink = primitives.PRF(mac, field) })
	oc := ope.New(key)
	opeUs := timeLoop(5, 200, func(i int) { sink = oc.EncryptInt64(1359966610 + int64(i)) })

	sk, err := paillier.GenerateKey(tpaillier.KeyBits)
	if err != nil {
		return err
	}
	ct, err := sk.PublicKey.EncryptInt64(630)
	if err != nil {
		return err
	}
	// The probe's key has no randomness pool, so Encrypt pays for the
	// exponentiation itself, as a gateway that has drained its pool does.
	enc := timeLoop(5, 40, func(i int) { sink, _ = sk.PublicKey.Encrypt(big.NewInt(int64(i))) })
	dec := timeLoop(5, 40, func(int) { sink, _ = sk.Decrypt(ct) })
	add := timeLoop(5, 2000, func(int) { sink, _ = paillier.Add(ct, ct) })

	m.Set("crypto.aead_seal_us", seal, "us")
	m.Set("crypto.aead_open_us", open, "us")
	m.Set("crypto.det_encrypt_us", detUs, "us")
	m.Set("crypto.prf_us", prf, "us")
	m.Set("crypto.ope_encrypt_us", opeUs, "us")
	m.Set("crypto.paillier_encrypt_us", enc, "us")
	m.Set("crypto.paillier_decrypt_us", dec, "us")
	m.Set("crypto.paillier_add_us", add, "us")
	// One insert on the paper schema: the document blob and the RND field are
	// sealed, five fields are DET-encrypted, Mitra derives an address and a
	// mask (two PRFs), and the value is Paillier-encrypted.
	m.Set("crypto.est_us_per_insert", 2*seal+5*detUs+2*prf+enc, "us")
	return nil
}

// storeProbes times the cloud stores' operations in memory, called directly.
func storeProbes(m metrics) error {
	const n = 5000
	kv := kvstore.New()
	defer kv.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("probe/key-%07d", i)) }
	val := make([]byte, 48)
	var err error
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	m.Set("kvstore.set_us", timeLoop(5, n, func(i int) { fail(kv.Set(key(i), val)) }), "us")
	m.Set("kvstore.get_us", timeLoop(5, n, func(i int) { _, _, e := kv.Get(key(i)); fail(e) }), "us")
	m.Set("kvstore.sadd_us", timeLoop(5, n, func(i int) { fail(kv.SAdd(key(i%64), key(i))) }), "us")
	m.Set("kvstore.zadd_us", timeLoop(5, n, func(i int) { fail(kv.ZAdd([]byte("probe/z"), key(i), key(i))) }), "us")
	m.Set("kvstore.zrange_us", timeLoop(5, 200, func(i int) {
		_, e := kv.ZRangeByScore([]byte("probe/z"), key(i*20), key(i*20+19), true, true)
		fail(e)
	}), "us")

	docs := docstore.New()
	defer docs.Close()
	blob := make([]byte, 428)
	id := func(i int) string { return fmt.Sprintf("obs-%08d", i) }
	m.Set("docstore.insert_us", timeLoop(5, n, func(i int) { fail(docs.Insert("probe", id(i), blob)) }), "us")
	ids := make([]string, 100)
	m.Set("docstore.getmany_us_per_doc", timeLoop(5, 50, func(i int) {
		for k := range ids {
			ids[k] = id(i*100 + k)
		}
		_, e := docs.GetMany("probe", ids)
		fail(e)
	})/100, "us")
	return err
}
