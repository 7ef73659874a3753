package wire

import "testing"

func msgN(n uint64) Message { return Message{Type: MsgExecReply, RequestID: n} }

func TestReplyBufferInOrder(t *testing.T) {
	b := NewReplyBuffer[Message](1)
	for seq := uint64(1); seq <= 5; seq++ {
		out := b.Add(seq, msgN(seq))
		if len(out) != 1 || out[0].RequestID != seq {
			t.Fatalf("Add(%d) = %v, want exactly that reply", seq, out)
		}
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d", b.Pending())
	}
}

func TestReplyBufferReorders(t *testing.T) {
	b := NewReplyBuffer[Message](1)
	if out := b.Add(3, msgN(3)); len(out) != 0 {
		t.Fatalf("early seq flushed: %v", out)
	}
	if out := b.Add(2, msgN(2)); len(out) != 0 {
		t.Fatalf("early seq flushed: %v", out)
	}
	if b.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Pending())
	}
	out := b.Add(1, msgN(1))
	if len(out) != 3 {
		t.Fatalf("flush = %d replies, want 3", len(out))
	}
	for i, m := range out {
		if m.RequestID != uint64(i+1) {
			t.Fatalf("flush[%d] = seq %d, want %d", i, m.RequestID, i+1)
		}
	}
	// The buffer continues past the flushed run.
	if out := b.Add(4, msgN(4)); len(out) != 1 || out[0].RequestID != 4 {
		t.Fatalf("Add(4) = %v", out)
	}
}

func TestReplyBufferPanicsOnMisuse(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	b := NewReplyBuffer[Message](1)
	b.Add(1, msgN(1))
	assertPanics("stale sequence", func() { b.Add(1, msgN(1)) })
	b2 := NewReplyBuffer[Message](1)
	b2.Add(2, msgN(2))
	assertPanics("duplicate sequence", func() { b2.Add(2, msgN(2)) })
}
