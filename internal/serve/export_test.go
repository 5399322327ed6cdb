package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// MemBytes reports the payload bytes resident in memory.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memSize
}

// decodeRows turns rows gathered from Stream entries, indexed by
// position, into records in position order. When complete, every one
// of the total positions must be filled.
func decodeRows(rows []json.RawMessage, filled, total int, complete bool) ([]sweep.Record, error) {
	if complete && filled != total {
		return nil, fmt.Errorf("serve: job finished with %d of %d rows delivered", filled, total)
	}
	recs := make([]sweep.Record, 0, filled)
	for _, row := range rows {
		if row == nil {
			continue
		}
		var rec sweep.Record
		if err := json.Unmarshal(row, &rec); err != nil {
			return nil, fmt.Errorf("serve: decode record: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}
