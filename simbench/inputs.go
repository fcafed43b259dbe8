package main

import (
	"bytes"
	"encoding/binary"
	"math"

	"srmcoll"
)

// Every input value is derived from the run seed through splitmix64, so the
// same seed gives the same roots and payloads on any machine, and the
// simulator only ever sees the generated buffers.

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw hashes the seed with a key path into one pseudo-random word.
func draw(seed int64, keys ...uint64) uint64 {
	h := mix(uint64(seed))
	for _, k := range keys {
		h = mix(h ^ k)
	}
	return h
}

type opKind int

const (
	opBcast opKind = iota
	opReduce
	opAllreduce
	opBarrier
)

func (o opKind) String() string {
	return [...]string{"bcast", "reduce", "allreduce", "barrier"}[o]
}

// callInput is one collective call's generated inputs. Reductions sum
// rank r's vector base[j] + r*step, so the expected result has the closed
// form p*base[j] + step*p(p-1)/2. Bases stay below 1024 and steps below 8,
// which keeps every partial sum an integer below 2^53: float64 sums are
// then exact in any combining order, like int64 sums.
type callInput struct {
	op    opKind
	dt    srmcoll.Datatype // Float64 or Int64 for reductions
	bytes int
	root  int
	base  []int64
	step  int64
	want  []byte // bcast: the root's payload; reductions: the expected sum
}

// newCall generates the inputs of call `key` over p ranks.
func newCall(seed int64, key uint64, op opKind, dt srmcoll.Datatype, size, p int) *callInput {
	c := &callInput{op: op, dt: dt, bytes: size}
	if op == opBarrier {
		return c
	}
	c.root = int(draw(seed, key, 1) % uint64(p))
	c.want = make([]byte, size)
	if op == opBcast {
		for i := 0; i < size; i += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], draw(seed, key, 2, uint64(i)))
			copy(c.want[i:], w[:])
		}
		return c
	}
	c.base = make([]int64, size/8)
	for j := range c.base {
		c.base[j] = int64(draw(seed, key, 3, uint64(j)) % 1024)
	}
	c.step = int64(1 + draw(seed, key, 4)%7)
	pp := int64(p)
	sum := make([]int64, len(c.base))
	for j, b := range c.base {
		sum[j] = pp*b + c.step*pp*(pp-1)/2
	}
	encode(c.want, c.dt, sum, 0)
	return c
}

// encode writes vals[j] + add as dt elements into dst.
func encode(dst []byte, dt srmcoll.Datatype, vals []int64, add int64) {
	for j, v := range vals {
		w := uint64(v + add)
		if dt == srmcoll.Float64 {
			w = math.Float64bits(float64(v + add))
		}
		binary.LittleEndian.PutUint64(dst[8*j:], w)
	}
}

// fillSend writes rank's contribution to a reduction into send.
func (c *callInput) fillSend(send []byte, rank int) {
	encode(send, c.dt, c.base, int64(rank)*c.step)
}

// prepareBcast sets up rank's bcast buffer: the root's payload, zeros
// elsewhere. Result buffers are zeroed before every call so a collective
// that leaves one untouched cannot pass the check on a previous call's
// data; no expected result is all zeros (sums are positive, payloads are
// random words).
func (c *callInput) prepareBcast(rank int, buf []byte) {
	if rank == c.root {
		copy(buf, c.want)
		return
	}
	clear(buf)
}

// check reports whether rank's output buffer holds the call's correct
// result. Reduce results exist only at the root; barriers carry no data.
func (c *callInput) check(rank int, out []byte) bool {
	switch c.op {
	case opBarrier:
		return true
	case opReduce:
		if rank != c.root {
			return true
		}
	}
	return bytes.Equal(out, c.want)
}
