module tlstm/bench

go 1.22

require tlstm v0.0.0

replace tlstm => ../
