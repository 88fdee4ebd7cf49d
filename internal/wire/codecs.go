package wire

import (
	"fmt"

	"disttrack/internal/boost"
	"disttrack/internal/count"
	"disttrack/internal/freq"
	"disttrack/internal/proto"
	"disttrack/internal/rank"
	"disttrack/internal/robust"
	"disttrack/internal/rounds"
	"disttrack/internal/sample"
	"disttrack/internal/summary/gk"
	"disttrack/internal/summary/merge"
)

// Stable wire tags, one per concrete message type. Never renumber.
const (
	tagRoundsUp        byte = 1
	tagRoundsBroadcast byte = 2
	tagCountUpdate     byte = 3
	tagCountAdjust     byte = 4
	tagCountDetReport  byte = 5
	tagCountCopy       byte = 6 // decode-only alias of tagBoost
	tagFreqCounter     byte = 7
	tagFreqSample      byte = 8
	tagFreqReset       byte = 9
	tagFreqDetReport   byte = 10
	tagRankSummary     byte = 11
	tagRankSample      byte = 12
	tagRankDetSnapshot byte = 13
	tagSampleElement   byte = 14
	tagSampleLevel     byte = 15
	tagBoost           byte = 16
	tagHello           byte = 17
	tagDone            byte = 18
	tagProgress        byte = 19
	tagRejoin          byte = 20
	tagResync          byte = 21
	// 22–24 are the persistence frames (persist.go: tagState, tagLogged,
	// tagSnapMeta).
	tagRobustReport byte = 25
	tagRobustAdjust byte = 26
)

// Hello is the handshake frame a site sends when its connection to the
// coordinator opens (socket transports only — control traffic, never
// charged to the protocol's cost ledger). Config is an optional
// fingerprint of the protocol configuration (problem, algorithm, ε, ...);
// the distributed server refuses sites whose fingerprint differs from its
// own, so a mismatched deployment fails loudly instead of silently
// dropping every protocol message. Words follows the accounting convention
// anyway so the type can ride the shared codec machinery.
type Hello struct {
	Site   int
	K      int
	Config uint64
}

// Words implements proto.Message.
func (Hello) Words() int { return 3 }

// Done signals the orderly end of a site's stream in the distributed mode,
// carrying the site's local arrival count (control traffic).
type Done struct {
	Arrivals int64
}

// Words implements proto.Message.
func (Done) Words() int { return 1 }

// Progress is a periodic control frame a site sends mid-stream in the
// distributed mode, carrying its running arrival count so the
// coordinator's mid-run reports can show arrivals before any Done frame
// lands (control traffic, never charged to the protocol's cost ledger).
type Progress struct {
	Arrivals int64
}

// Words implements proto.Message.
func (Progress) Words() int { return 1 }

// Rejoin is the handshake frame a previously connected site sends instead
// of Hello when it reconnects after a crash or a dropped connection
// (control traffic). Site, K, and Config are validated exactly like
// Hello's; Arrivals carries the site's local arrival count at reconnect
// time (0 after a crash that lost local state), so the coordinator can
// log how much of the stream the site believes it has delivered.
type Rejoin struct {
	Site     int
	K        int
	Config   uint64
	Arrivals int64
}

// Words implements proto.Message.
func (Rejoin) Words() int { return 4 }

// Resync is the coordinator's acceptance of a Rejoin (control traffic). It
// carries the coordinator's current protocol round (0 when the protocol
// has no round structure) and the site's last coordinator-acknowledged
// arrival count — the recovery point: a crashed site whose stream source
// is replayable replays from 0 (the protocols' absolute-state messages
// make that reconverge exactly); one that cannot replay resumes from its
// own position and the coordinator keeps the pre-crash contribution it
// last acknowledged. Ordinary protocol frames that bring the fresh site
// machine to the current round (the coordinator's Resync replay, see
// proto.Resyncer) follow immediately after this frame.
type Resync struct {
	Round    int64
	Arrivals int64
}

// ResyncComplete in Resync.Round marks a completion acknowledgment rather
// than a rejoin acceptance: the run is over (or this site's part of it is),
// and everything up to Arrivals is durably applied. The server sends it to
// every connected site before an orderly hangup, and to a finished site
// that redials a resumed coordinator — the signal SiteConn.Close uses to
// tell an orderly end from a coordinator crash.
const ResyncComplete int64 = -1

// Words implements proto.Message.
func (Resync) Words() int { return 2 }

func init() {
	Register(tagRoundsUp, rounds.UpMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(rounds.UpMsg).N)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return rounds.UpMsg{N: n}, b, err
		})

	Register(tagRoundsBroadcast, rounds.BroadcastMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(rounds.BroadcastMsg).NBar)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return rounds.BroadcastMsg{NBar: n}, b, err
		})

	Register(tagCountUpdate, count.UpdateMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(count.UpdateMsg).N)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return count.UpdateMsg{N: n}, b, err
		})

	Register(tagCountAdjust, count.AdjustMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(count.AdjustMsg).NBar)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return count.AdjustMsg{NBar: n}, b, err
		})

	Register(tagCountDetReport, count.DetReportMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(count.DetReportMsg).N)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return count.DetReportMsg{N: n}, b, err
		})

	Register(tagFreqCounter, freq.CounterMsg{},
		func(b []byte, m proto.Message) []byte {
			cm := m.(freq.CounterMsg)
			return AppendInt(AppendInt(b, cm.Item), cm.Count)
		},
		func(b []byte) (proto.Message, []byte, error) {
			item, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			cnt, b, err := ReadInt(b)
			return freq.CounterMsg{Item: item, Count: cnt}, b, err
		})

	Register(tagFreqSample, freq.SampleMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(freq.SampleMsg).Item)
		},
		func(b []byte) (proto.Message, []byte, error) {
			item, b, err := ReadInt(b)
			return freq.SampleMsg{Item: item}, b, err
		})

	Register(tagFreqReset, freq.ResetMsg{},
		func(b []byte, m proto.Message) []byte { return b },
		func(b []byte) (proto.Message, []byte, error) {
			return freq.ResetMsg{}, b, nil
		})

	// Pooled pointer message: encode accepts *DetReportMsg (the form the
	// protocol ships) and decode draws from the same shell pool the sites
	// use, so a decoded frame's shell is recycled by the coordinator.
	Register(tagFreqDetReport, &freq.DetReportMsg{},
		func(b []byte, m proto.Message) []byte {
			dm := m.(*freq.DetReportMsg)
			return AppendInt(AppendInt(AppendInt(b, int64(dm.Slot)), dm.Item), dm.Count)
		},
		func(b []byte) (proto.Message, []byte, error) {
			slot, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			item, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			cnt, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			return freq.NewDetReport(int(slot), item, cnt), b, nil
		})

	Register(tagRankSummary, rank.SummaryMsg{},
		func(b []byte, m proto.Message) []byte {
			sm := m.(rank.SummaryMsg)
			b = AppendInt(b, sm.Chunk)
			b = AppendInt(b, int64(sm.Level))
			b = AppendInt(b, int64(sm.Pos))
			return appendMergeSnapshot(b, sm.Snap)
		},
		func(b []byte) (proto.Message, []byte, error) {
			chunk, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			level, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			pos, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			snap, b, err := readMergeSnapshot(b)
			if err != nil {
				return nil, b, err
			}
			return rank.SummaryMsg{Chunk: chunk, Level: int(level), Pos: int(pos), Snap: snap}, b, nil
		})

	Register(tagRankSample, rank.SampleMsg{},
		func(b []byte, m proto.Message) []byte {
			sm := m.(rank.SampleMsg)
			return AppendFloat(AppendInt(AppendInt(b, sm.Chunk), sm.Index), sm.Value)
		},
		func(b []byte) (proto.Message, []byte, error) {
			chunk, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			idx, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			v, b, err := ReadFloat(b)
			return rank.SampleMsg{Chunk: chunk, Index: idx, Value: v}, b, err
		})

	// Pooled pointer message, like tagFreqDetReport above.
	Register(tagRankDetSnapshot, &rank.DetSnapshotMsg{},
		func(b []byte, m proto.Message) []byte {
			sn := m.(*rank.DetSnapshotMsg).Snap
			b = AppendInt(b, sn.N)
			b = AppendFloat(b, sn.Eps)
			b = AppendInt(b, int64(len(sn.Tuples)))
			for _, t := range sn.Tuples {
				b = AppendFloat(b, t.V)
				b = AppendInt(b, t.G)
				b = AppendInt(b, t.D)
			}
			return b
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			eps, b, err := ReadFloat(b)
			if err != nil {
				return nil, b, err
			}
			nt, b, err := ReadCount(b, 24)
			if err != nil {
				return nil, b, err
			}
			var tuples []gk.SnapshotTuple
			if nt > 0 {
				tuples = make([]gk.SnapshotTuple, nt)
				for i := range tuples {
					tuples[i].V, b, _ = ReadFloat(b)
					tuples[i].G, b, _ = ReadInt(b)
					tuples[i].D, b, err = ReadInt(b)
					if err != nil {
						return nil, b, err
					}
				}
			}
			return rank.NewDetSnapshot(gk.Snapshot{N: n, Eps: eps, Tuples: tuples}), b, nil
		})

	Register(tagSampleElement, sample.ElementMsg{},
		func(b []byte, m proto.Message) []byte {
			em := m.(sample.ElementMsg)
			return AppendInt(AppendFloat(AppendInt(b, em.Item), em.Value), int64(em.Level))
		},
		func(b []byte) (proto.Message, []byte, error) {
			item, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			v, b, err := ReadFloat(b)
			if err != nil {
				return nil, b, err
			}
			lvl, b, err := ReadInt(b)
			return sample.ElementMsg{Item: item, Value: v, Level: int(lvl)}, b, err
		})

	Register(tagSampleLevel, sample.LevelMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, int64(m.(sample.LevelMsg).Level))
		},
		func(b []byte) (proto.Message, []byte, error) {
			lvl, b, err := ReadInt(b)
			return sample.LevelMsg{Level: int(lvl)}, b, err
		})

	Register(tagBoost, boost.Msg{},
		func(b []byte, m proto.Message) []byte {
			bm := m.(boost.Msg)
			b = AppendInt(b, int64(bm.Copy))
			b, err := Append(b, bm.Inner)
			if err != nil {
				panic(err) // a boost.Msg can only wrap registered protocol messages
			}
			return b
		},
		func(b []byte) (proto.Message, []byte, error) {
			idx, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			if err := checkCopy(idx); err != nil {
				return nil, b, err
			}
			inner, b, err := Decode(b)
			if err != nil {
				return nil, b, err
			}
			if err := checkInner(inner); err != nil {
				return nil, b, err
			}
			return boost.Msg{Copy: int(idx), Inner: inner}, b, nil
		})

	// Tag 6 carried count's former median multiplexer, now replaced by
	// internal/boost. Its frames have tag 16's layout (copy index, then the
	// inner frame), so the tag stays reserved and decodes as a boost.Msg:
	// streams and Persist stores written with it still read.
	byTag[tagCountCopy] = byTag[tagBoost]

	Register(tagHello, Hello{},
		func(b []byte, m proto.Message) []byte {
			h := m.(Hello)
			return AppendInt(AppendInt(AppendInt(b, int64(h.Site)), int64(h.K)), int64(h.Config))
		},
		func(b []byte) (proto.Message, []byte, error) {
			site, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			k, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			cfg, b, err := ReadInt(b)
			return Hello{Site: int(site), K: int(k), Config: uint64(cfg)}, b, err
		})

	Register(tagProgress, Progress{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(Progress).Arrivals)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return Progress{Arrivals: n}, b, err
		})
	Register(tagDone, Done{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(Done).Arrivals)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return Done{Arrivals: n}, b, err
		})

	Register(tagRejoin, Rejoin{},
		func(b []byte, m proto.Message) []byte {
			r := m.(Rejoin)
			b = AppendInt(AppendInt(b, int64(r.Site)), int64(r.K))
			return AppendInt(AppendInt(b, int64(r.Config)), r.Arrivals)
		},
		func(b []byte) (proto.Message, []byte, error) {
			site, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			k, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			cfg, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			n, b, err := ReadInt(b)
			return Rejoin{Site: int(site), K: int(k), Config: uint64(cfg), Arrivals: n}, b, err
		})

	Register(tagRobustReport, robust.ReportMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(robust.ReportMsg).N)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return robust.ReportMsg{N: n}, b, err
		})

	Register(tagRobustAdjust, robust.AdjustMsg{},
		func(b []byte, m proto.Message) []byte {
			return AppendInt(b, m.(robust.AdjustMsg).NBar)
		},
		func(b []byte) (proto.Message, []byte, error) {
			n, b, err := ReadInt(b)
			return robust.AdjustMsg{NBar: n}, b, err
		})

	Register(tagResync, Resync{},
		func(b []byte, m proto.Message) []byte {
			r := m.(Resync)
			return AppendInt(AppendInt(b, r.Round), r.Arrivals)
		},
		func(b []byte) (proto.Message, []byte, error) {
			round, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			n, b, err := ReadInt(b)
			return Resync{Round: round, Arrivals: n}, b, err
		})

	// Scratch decoders (wire.Decoder) for the fixed-width hot-path
	// messages: decode into a reusable pointer box instead of boxing a
	// fresh value per frame. All of them share the shape "reuse prev or
	// allocate once, overwrite every field".
	RegisterScratch(tagRoundsUp,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*rounds.UpMsg)
			if p == nil {
				p = new(rounds.UpMsg)
			}
			var err error
			p.N, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagRoundsBroadcast,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*rounds.BroadcastMsg)
			if p == nil {
				p = new(rounds.BroadcastMsg)
			}
			var err error
			p.NBar, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagCountUpdate,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*count.UpdateMsg)
			if p == nil {
				p = new(count.UpdateMsg)
			}
			var err error
			p.N, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagCountAdjust,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*count.AdjustMsg)
			if p == nil {
				p = new(count.AdjustMsg)
			}
			var err error
			p.NBar, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagFreqCounter,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*freq.CounterMsg)
			if p == nil {
				p = new(freq.CounterMsg)
			}
			var err error
			p.Item, b, err = ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			p.Count, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagFreqSample,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*freq.SampleMsg)
			if p == nil {
				p = new(freq.SampleMsg)
			}
			var err error
			p.Item, b, err = ReadInt(b)
			return p, b, err
		})
	RegisterScratch(tagRankSample,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*rank.SampleMsg)
			if p == nil {
				p = new(rank.SampleMsg)
			}
			var err error
			p.Chunk, b, err = ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			p.Index, b, err = ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			p.Value, b, err = ReadFloat(b)
			return p, b, err
		})
	RegisterScratch(tagSampleElement,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*sample.ElementMsg)
			if p == nil {
				p = new(sample.ElementMsg)
			}
			item, b, err := ReadInt(b)
			if err != nil {
				return nil, b, err
			}
			v, b, err := ReadFloat(b)
			if err != nil {
				return nil, b, err
			}
			lvl, b, err := ReadInt(b)
			p.Item, p.Value, p.Level = item, v, int(lvl)
			return p, b, err
		})
	RegisterScratch(tagSampleLevel,
		func(b []byte, prev proto.Message) (proto.Message, []byte, error) {
			p, _ := prev.(*sample.LevelMsg)
			if p == nil {
				p = new(sample.LevelMsg)
			}
			lvl, b, err := ReadInt(b)
			p.Level = int(lvl)
			return p, b, err
		})
}

// MaxCopies bounds the copy index a decoded multiplexer message may carry.
// Real deployments run O(log(logN/δε)) copies — a handful — so anything
// near this limit is corruption, and rejecting it here keeps a decoded
// index from reaching the multiplexers' copy arrays wildly out of range.
const MaxCopies = 1 << 16

// checkCopy validates a decoded multiplexer copy index.
func checkCopy(idx int64) error {
	if idx < 0 || idx >= MaxCopies {
		return fmt.Errorf("wire: copy index %d out of range", idx)
	}
	return nil
}

// checkInner rejects a multiplexer wrapper nested inside another wrapper,
// and persistence records (Logged, SnapMeta) nested inside a multiplexer.
// The protocols never produce either (boost wraps base messages only;
// persistence records wrap, they are never wrapped), and refusing them
// bounds decode recursion on corrupt input.
func checkInner(inner proto.Message) error {
	switch inner.(type) {
	case boost.Msg, Logged, SnapMeta:
		return fmt.Errorf("wire: nested multiplexer message %T", inner)
	}
	return nil
}

// appendMergeSnapshot encodes a merge.Snapshot: N, buffer count, then per
// buffer its weight, length, and values.
func appendMergeSnapshot(b []byte, sn merge.Snapshot) []byte {
	b = AppendInt(b, sn.N)
	b = AppendInt(b, int64(len(sn.Buffers)))
	for _, buf := range sn.Buffers {
		b = AppendInt(b, buf.Weight)
		b = AppendInt(b, int64(len(buf.Values)))
		for _, v := range buf.Values {
			b = AppendFloat(b, v)
		}
	}
	return b
}

// readMergeSnapshot decodes a merge.Snapshot into fresh storage.
func readMergeSnapshot(b []byte) (merge.Snapshot, []byte, error) {
	n, b, err := ReadInt(b)
	if err != nil {
		return merge.Snapshot{}, b, err
	}
	// Each buffer occupies at least two words (weight + length).
	nb, b, err := ReadCount(b, 16)
	if err != nil {
		return merge.Snapshot{}, b, err
	}
	var bufs []merge.WeightedBuffer
	if nb > 0 {
		bufs = make([]merge.WeightedBuffer, nb)
		for i := range bufs {
			var w int64
			w, b, err = ReadInt(b)
			if err != nil {
				return merge.Snapshot{}, b, err
			}
			var nv int
			nv, b, err = ReadCount(b, 8)
			if err != nil {
				return merge.Snapshot{}, b, err
			}
			vals := make([]float64, nv)
			for j := range vals {
				vals[j], b, _ = ReadFloat(b)
			}
			bufs[i] = merge.WeightedBuffer{Weight: w, Values: vals}
		}
	}
	return merge.Snapshot{N: n, Buffers: bufs}, b, nil
}
