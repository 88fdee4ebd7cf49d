package tcp

import (
	"sync"
	"testing"
)

func TestMailboxManyProducers(t *testing.T) {
	mb := newMailbox()
	const producers = 8
	const perProducer = 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				mb.put(i)
			}
		}()
	}
	done := make(chan int)
	go func() {
		got := 0
		for {
			_, ok := mb.get()
			if !ok {
				done <- got
				return
			}
			got++
		}
	}()
	wg.Wait()
	mb.close()
	if got := <-done; got != producers*perProducer {
		t.Fatalf("mailbox delivered %d, want %d", got, producers*perProducer)
	}
}

func TestMailboxFIFO(t *testing.T) {
	mb := newMailbox()
	// Interleave puts and gets so the queue keeps growing while its head
	// advances.
	next, want := 0, 0
	for round := 0; round < 300; round++ {
		for i := 0; i < 7; i++ {
			mb.put(next)
			next++
		}
		for i := 0; i < 5; i++ {
			v, ok := mb.get()
			if !ok || v.(int) != want {
				t.Fatalf("got %v (ok=%v), want %d", v, ok, want)
			}
			want++
		}
	}
	mb.close()
	for {
		v, ok := mb.get()
		if !ok {
			break
		}
		if v.(int) != want {
			t.Fatalf("drain got %v, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d values, want %d", want, next)
	}
}
