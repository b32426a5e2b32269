package server

import (
	"ncq"
	"ncq/internal/wire"
)

// toAnswer lowers one document's query-language answer to its wire
// form.
func toAnswer(source string, ans *ncq.Answer) wire.Answer {
	out := wire.Answer{
		Source:  source,
		Columns: ans.Columns,
		IsMeet:  ans.IsMeet,
		Rows:    make([]wire.Row, len(ans.Rows)),
	}
	for i, r := range ans.Rows {
		out.Rows[i] = wire.Row{
			Node:      r.OID,
			Tag:       r.Tag,
			Path:      r.Path,
			Value:     r.Value,
			XML:       r.XML,
			Witnesses: r.Witnesses,
			Distance:  r.Distance,
		}
	}
	return out
}
