package main

// crcShift is the GF(2) operator that advances a CRC-32 (IEEE, as
// hash/crc32.ChecksumIEEE computes it) over a fixed number of bytes:
// column n is the image of bit n. It lets the churn workload give each
// of its 8192 requests a valid frame CRC without checksumming a 2 MB
// payload 8192 times: crc(A‖B) = shift(crc(A), len(B)) ^ crc(B), the
// zlib crc32_combine identity, with the shift for the one payload
// length precomputed.
type crcShift [32]uint32

// times applies the operator to vec.
func (m *crcShift) times(vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

// mul returns the operator that applies b first, then a.
func (a *crcShift) mul(b *crcShift) crcShift {
	var out crcShift
	for n := range out {
		out[n] = a.times(b[n])
	}
	return out
}

// newCRCShift builds the operator for n bytes by square-and-multiply
// over the one-bit shift of the reflected IEEE polynomial.
func newCRCShift(n int) crcShift {
	var pow crcShift // shift by 1 bit, squared up to 8 bits = 1 byte
	pow[0] = 0xedb88320
	for i := 1; i < 32; i++ {
		pow[i] = 1 << (i - 1)
	}
	for i := 0; i < 3; i++ {
		pow = pow.mul(&pow)
	}
	var out crcShift // identity
	for i := range out {
		out[i] = 1 << i
	}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			out = pow.mul(&out)
		}
		pow = pow.mul(&pow)
	}
	return out
}

// combine returns the CRC of A‖B from crc(A) and crc(B), where m was
// built for len(B).
func (m *crcShift) combine(crcA, crcB uint32) uint32 {
	return m.times(crcA) ^ crcB
}
