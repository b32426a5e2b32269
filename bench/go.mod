module ncq/bench

go 1.24.0

require ncq v0.0.0

replace ncq => ../
