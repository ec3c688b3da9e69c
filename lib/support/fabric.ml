let lut_k = 6
let level_delay = 0.7
