package server

import "testing"

// TestPooledBuffersCapped: a buffer grown past maxPooledBuffer — the
// one that read a body near the 1 MiB cap — never goes back to the
// pool, and every buffer the pool hands out is empty.
func TestPooledBuffersCapped(t *testing.T) {
	big := getBuffer()
	big.Grow(maxPooledBuffer + 1)
	putBuffer(big)
	small := getBuffer()
	small.WriteString(`{"problem":"p"}`)
	putBuffer(small)
	for i := 0; i < 100; i++ {
		b := getBuffer()
		if b == big {
			t.Fatalf("the pool handed out a buffer of %d B, over its %d B cap", big.Cap(), maxPooledBuffer)
		}
		if b.Len() != 0 {
			t.Fatalf("the pool handed out a buffer holding %q", b.Bytes())
		}
	}
}
